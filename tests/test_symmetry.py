import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from nrcodes import symmetry
from nrcodes.codes import (
    Code,
    free_coordinates,
    puncture,
    reduce_mod,
    span,
    translate,
)
from nrcodes.hamming import from_string, permute_bits, unpermute_bits
from nrcodes.symmetry import (
    AutElement,
    PermGroup,
    SearchBudgetExceeded,
    _Budget,
    _coset_labels,
    _Incidence,
    _ranks,
    _refine,
    _search_permutation,
    _translation_subspace,
    assemble_aut_generators,
    enumerate_perm_automorphisms,
    format_aut_element,
    maps_onto,
    orbits_on_sphere,
    punctured_candidates,
    punctured_perm_group,
    verify_complete_transitivity,
)
from oracles import (
    brute_orbits,
    brute_perm_automorphisms,
    brute_ranks,
    brute_refine,
    mulclose_order,
    plain_search_permutation,
)

# Node budget for the regression guard below: the permutation stabilizers
# of NR and PN and their generator assembly (6, 3, 4 and 3 nodes, as
# test_search_node_counts pins) must each finish within it.
GUARD_BUDGET = 30
DETERMINISTIC = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def random_element(rng: random.Random, m: int) -> AutElement:
    sigma = list(range(m))
    rng.shuffle(sigma)
    return AutElement(m, rng.randrange(1 << m), tuple(sigma))


def test_group_laws_randomized():
    rng = random.Random(42)
    m = 16
    identity = AutElement.translation(m, 0)
    for _ in range(1000):
        x = random_element(rng, m)
        y = random_element(rng, m)
        z = random_element(rng, m)
        v = rng.randrange(1 << m)
        assert (x * y).act(v) == y.act(x.act(v))
        assert (x * y) * z == x * (y * z)
        assert x * identity == x == identity * x
        assert x * x.inverse() == identity
        assert x.inverse().act(x.act(v)) == v


def test_act_examples():
    m = 8
    assert AutElement.translation(m, 0).act(0b1011) == 0b1011
    beta = 0b1100
    assert AutElement.translation(m, beta).act(0) == beta
    rot = AutElement.permutation(3, (1, 2, 0))
    assert rot.act(0b001) == 0b010


def test_permutation_part_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        x = random_element(rng, 12)
        y = random_element(rng, 12)
        composed = (x * y).sigma
        assert composed == tuple(y.sigma[x.sigma[j]] for j in range(12))
    assert AutElement.translation(12, 7).sigma == tuple(range(12))


def test_aut_element_file_format():
    rng = random.Random(7)
    elems = [random_element(rng, 16) for _ in range(5)]
    for x in elems:
        beta, _, images = format_aut_element(x).partition(" sigma=")
        assert beta.startswith("beta=")
        assert from_string(beta[len("beta="):]) == (x.beta, 16)
        assert [int(t) - 1 for t in images.split(" ")] == list(x.sigma)


def test_perm_group_small_orders():
    assert PermGroup(3, [(1, 0, 2)]).order() == 2
    assert PermGroup(3, [(1, 0, 2), (0, 2, 1)]).order() == 6
    assert PermGroup(5, [(1, 2, 3, 4, 0)]).order() == 5
    assert PermGroup(2, [(1, 0)]).order() == 2
    n = 24
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    assert PermGroup(n, [swap, cycle]).order() == math.factorial(n)
    three_cycle = (1, 2, 0) + tuple(range(3, n))
    long_cycle = (0,) + tuple(range(2, n)) + (1,)  # a 23-cycle, so even
    assert PermGroup(n, [three_cycle, long_cycle]).order() == math.factorial(n) // 2


@st.composite
def perm_generators(draw, max_degree: int):
    """A degree n <= max_degree and one to three permutations of 0..n-1,
    each shuffling a random subset of at least two points."""
    n = draw(st.integers(2, max_degree))
    rng = draw(st.randoms(use_true_random=True))
    gens = []
    for _ in range(rng.randint(1, 3)):
        points = rng.sample(range(n), rng.randint(2, n))
        g = list(range(n))
        for a, b in zip(sorted(points), points):
            g[a] = b
        gens.append(tuple(g))
    return n, gens


@settings(DETERMINISTIC, max_examples=50)  # the closure of S_6 takes 0.1 s
@given(perm_generators(6))
def test_perm_group_order_matches_closure(case):
    n, gens = case
    assert PermGroup(n, gens).order() == mulclose_order(gens, n)


@DETERMINISTIC
@given(perm_generators(24))
def test_perm_group_order_matches_sympy(case):
    n, gens = case
    group = PermutationGroup([Permutation(list(g)) for g in gens])
    assert PermGroup(n, gens).order() == group.order()


@settings(DETERMINISTIC, max_examples=50)  # two Schreier-Sims runs per example
@given(perm_generators(24))
def test_perm_group_rows_hold_their_coset_representatives(case):
    # Row k's keys are the orbit of k under the stabilizer of 0..k-1, and
    # each of its elements is a group element that fixes 0..k-1 and sends
    # k to its key.  The stabilizers come from sympy's strong generating
    # set over the base 0..n-1: those of its elements that fix 0..k-1.
    n, gens = case
    table = PermGroup(n, gens)
    group = PermutationGroup([Permutation(list(g)) for g in gens])
    _, strong = group.schreier_sims_incremental(base=list(range(n)))
    for k in range(n):
        row = table.row(k)
        fixing = [s for s in strong if s.array_form[:k] == list(range(k))]
        orbit = PermutationGroup(fixing).orbit(k) if fixing else {k}
        assert set(row) == set(orbit)
        for j, rep in row.items():
            assert rep[:k] == tuple(range(k)) and rep[k] == j
            assert group.contains(Permutation(list(rep)))


@settings(DETERMINISTIC, max_examples=50)
@given(perm_generators(12), st.integers(1, 3))
def test_extended_perm_group_matches_one_built_at_once(case, split):
    # The table grown by `extended` is the one a build from all the
    # generators gives, row for row.
    n, gens = case
    gens = gens + [tuple(reversed(range(n)))]
    split = min(split, len(gens))
    grown = PermGroup(n, gens[:split]).extended(gens[split:])
    at_once = PermGroup(n, gens)
    assert grown.generators == at_once.generators
    assert grown.order() == at_once.order()
    assert all(dict(grown.row(k)) == dict(at_once.row(k)) for k in range(n))


def test_extended_perm_group_leaves_the_original(nr_perm_group, nr_generators):
    before = [dict(nr_perm_group.row(k)) for k in range(16)]
    mu_image = nr_perm_group.extended(g.sigma for g in nr_generators)
    assert mu_image.order() == 322560
    assert nr_perm_group.order() == 40320
    assert [dict(nr_perm_group.row(k)) for k in range(16)] == before


def test_perm_group_order_is_transversal_product(nr_perm_group):
    prod = 1
    for k in range(nr_perm_group.degree):
        row = nr_perm_group.row(k)
        for j, rep in row.items():
            assert rep[:k] == tuple(range(k)) and rep[k] == j
        prod *= len(row)
    assert prod == nr_perm_group.order() == 40320


def test_enumerate_automorphisms_repetition_code():
    assert enumerate_perm_automorphisms(Code(3, [0, 7])).order() == 6


SMALL_CODES = [
    (3, [0, 7]),
    (3, [0, 3]),
    (4, [0b0110, 0b1001, 0b0000, 0b1111]),
    (4, [1, 2, 12]),
    (5, [0b00111, 0b11100, 0b11011]),
    (6, [0, 0b111000, 0b000111, 0b111111]),
    (7, None),  # filled with a random sample below
    (8, None),
]


@pytest.mark.parametrize("m,words", SMALL_CODES)
def test_backtrack_matches_brute_force(m, words):
    if words is None:
        rng = random.Random(m)
        words = [0] + rng.sample(range(1, 1 << m), 4)
    code = Code(m, words)
    brute = brute_perm_automorphisms(code)
    group = enumerate_perm_automorphisms(code)
    assert group.order() == len(brute)
    assert mulclose_order(group.generators, m) == len(brute)


def test_backtrack_matches_brute_force_rm13():
    rows = ("11111111", "01010101", "00110011", "00001111")
    code = span([from_string(s)[0] for s in rows], 8)
    brute = brute_perm_automorphisms(code)
    group = enumerate_perm_automorphisms(code)
    assert group.order() == len(brute) == 1344


def test_nr_permutation_stabilizer_order(nr_perm_group):
    assert nr_perm_group.order() == 40320  # 2^4 times |A_7|


def test_pn_permutation_stabilizer_order(pn_perm_group):
    assert pn_perm_group.order() == 2520  # |A_7|


def test_enumerate_rejects_large_inputs():
    with pytest.raises(ValueError):
        enumerate_perm_automorphisms(Code(17, [0, 1]))


def test_budget_exceeded(nr):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_perm_automorphisms(nr, budget=5)


def test_walk_generator_outside_its_level_cell_fails(nr, monkeypatch):
    # NR's walk starts at its bottom level, k = 3, where 0 is a cell of its
    # own: a first generator swapping 0 and 3, which refinement would never
    # allow, must push the order past the level-cell bound 16*15*14*12.
    extend = symmetry._extend
    planted = [(3, 1, 2, 0) + tuple(range(4, 16))]

    def faulty(*args):
        return planted.pop() if planted else extend(*args)

    monkeypatch.setattr(symmetry, "_extend", faulty)
    with pytest.raises(RuntimeError, match="level-cell bound 40320"):
        enumerate_perm_automorphisms(nr)
    assert not planted


def test_search_node_budget_guard(nr, pn):
    for code, order in ((nr, 40320), (pn, 2520)):
        group = enumerate_perm_automorphisms(code, budget=GUARD_BUDGET)
        assert group.order() == order
        assemble_aut_generators(code, group, budget=GUARD_BUDGET)


def test_search_node_counts(nr, pn, nr_perm_group, pn_perm_group):
    # A search takes exactly n nodes when it finishes within a budget of n
    # and runs out of a budget of n - 1.
    def assert_nodes(search, n):
        search(n)
        with pytest.raises(SearchBudgetExceeded):
            search(n - 1)

    assert_nodes(lambda b: enumerate_perm_automorphisms(nr, budget=b), 6)
    assert_nodes(lambda b: enumerate_perm_automorphisms(pn, budget=b), 3)
    # generator assembly: one translated search per code, for the first
    # nonzero coset leader; its mover and the permutations reach the rest
    assert_nodes(lambda b: assemble_aut_generators(nr, nr_perm_group, budget=b), 4)
    assert_nodes(lambda b: assemble_aut_generators(pn, pn_perm_group, budget=b), 3)


def test_punctured_perm_group_of_pn(nr, pn, nr_perm_group, pn_perm_group):
    # PN's group read off NR's Sims table is the one the stabilizer walk
    # finds on PN: each one's generators lie in the other.
    derived = punctured_perm_group(pn, nr, nr_perm_group)
    assert derived.order() == 2520
    for g in pn_perm_group.generators:
        assert derived.extended([g]).order() == 2520
    for g in derived.generators:
        assert pn_perm_group.extended([g]).order() == 2520


def test_punctured_perm_group_rejects_a_code_that_is_no_even_extension(
    nr, pn, nr_perm_group
):
    # NR with coordinate 1 flipped: dropping it still gives PN, but every
    # word has odd weight
    odd = translate(nr, 1)
    with pytest.raises(ValueError, match="even-weight extension"):
        punctured_perm_group(pn, odd, enumerate_perm_automorphisms(odd))
    with pytest.raises(ValueError, match="even-weight extension"):
        punctured_perm_group(puncture(nr, 2), nr, nr_perm_group)
    with pytest.raises(ValueError, match="even-weight extension"):
        punctured_perm_group(Code(15, pn.words[:-1]), nr, nr_perm_group)


def test_punctured_perm_group_checks_what_it_reads(nr, pn, nr_perm_group, monkeypatch):
    # A row element that is no automorphism fails `maps_onto`; elements
    # taken by a broken orbit rule fail the order cross-check.
    row = PermGroup.row
    swap = (0, 2, 1) + tuple(range(3, 16))

    def tampered(self, k):
        return {**row(self, k), 2: swap} if k == 1 else row(self, k)

    with monkeypatch.context() as patch:
        patch.setattr(PermGroup, "row", tampered)
        with pytest.raises(RuntimeError, match="does not stabilize"):
            punctured_perm_group(pn, nr, nr_perm_group)
    with monkeypatch.context() as patch:
        # every Sims table stays trivial, so every row element is taken
        patch.setattr(PermGroup, "extended", lambda self, gens: self)
        with pytest.raises(RuntimeError, match="row product"):
            punctured_perm_group(pn, nr, nr_perm_group)


@st.composite
def even_codes(draw):
    """A code of length m <= 8 whose words all have even weight."""
    m = draw(st.integers(2, 8))
    evens = [v for v in range(1 << m) if v.bit_count() % 2 == 0]
    return Code(m, draw(st.lists(st.sampled_from(evens), min_size=1, max_size=12)))


@settings(DETERMINISTIC, max_examples=40)
@given(even_codes())
def test_punctured_perm_group_agrees_with_brute_force(code):
    # The brute-force automorphisms are a whole group, so their closure
    # (`mulclose_order`, quadratic in the order) is their count.
    punctured = Code(code.m - 1, [w >> 1 for w in code.words])
    derived = punctured_perm_group(punctured, code, enumerate_perm_automorphisms(code))
    brute = brute_perm_automorphisms(punctured)
    assert derived.order() == len(brute)
    assert set(derived.generators) <= set(brute)


def test_negative_budget_rejected(nr):
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_perm_automorphisms(nr, budget=-1)


@st.composite
def small_codes(draw, max_m: int = 8):
    m = draw(st.integers(2, max_m))
    return Code(m, draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=10)))


@st.composite
def small_code_pairs(draw):
    """A small code and an image of it under a random coordinate
    permutation, sometimes with one word replaced."""
    code = draw(small_codes())
    m = code.m
    sigma = draw(st.permutations(range(m)))
    image = [permute_bits(w, sigma) for w in code.words]
    if draw(st.booleans()):
        image[draw(st.integers(0, len(image) - 1))] = draw(st.integers(0, (1 << m) - 1))
    return code, Code(m, image)


@st.composite
def cycle_union_pairs(draw):
    """The edge codes of two disjoint unions of cycles on m vertices, one
    weight-2 word per edge; the second is sometimes a relabelled copy of
    the first.  Every coordinate lies in two words, so refinement alone
    cannot tell cycle lengths apart and the search has to branch."""
    m = draw(st.integers(6, 10))

    def cycle_code():
        order = draw(st.permutations(range(m)))
        words, start = [], 0
        while start < m:
            rest = m - start
            length = rest if rest < 6 else draw(st.integers(3, rest - 3))
            cycle = order[start : start + length]
            words += [(1 << u) | (1 << v) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
            start += length
        return Code(m, words)

    a = cycle_code()
    if draw(st.booleans()):
        sigma = draw(st.permutations(range(m)))
        return a, Code(m, [permute_bits(w, sigma) for w in a.words])
    return a, cycle_code()


@DETERMINISTIC
@given(st.one_of(small_code_pairs(), cycle_union_pairs()))
def test_search_agrees_with_plain_oracle(case):
    # The stabilizer walk's searches from a level partition are checked
    # against the oracle's prefix searches in test_enumerate_agrees_with_oracles.
    a, b = case
    ours = _search_permutation(a.words, b.words, a.m, _Budget(None))
    plain = plain_search_permutation(a.words, b.words, a.m)
    assert (ours is None) == (plain is None)
    if ours is not None:
        assert sorted(permute_bits(w, ours) for w in a.words) == list(b.words)


@st.composite
def key_matrices(draw):
    """int64 key matrices of the shapes `_refine` ranks: 2x1, tall
    (2n x (1+k)), wide (2m x (1+w), w up to 513), all rows equal, or rows
    that tie everywhere but in the last column.  The second half is a row
    permutation of the first, the same with one entry changed, or drawn
    on its own, so the two halves' row multisets agree only sometimes."""
    kind = draw(st.sampled_from(["pair", "tall", "wide", "equal", "last"]))
    if kind == "pair":
        half, cols = 1, 1
    elif kind == "wide":
        half, cols = draw(st.integers(1, 16)), 1 + draw(st.integers(0, 513))
    else:
        half, cols = draw(st.integers(1, 40)), 1 + draw(st.integers(0, 8))
    high = draw(st.sampled_from([1, 2, 3, 2**62]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_half():
        keys = rng.integers(0, high, size=(half, cols), dtype=np.int64)
        if kind == "equal":
            keys[:] = keys[0]
        elif kind == "last":
            keys[:, :-1] = keys[0, :-1]
        return keys

    a = draw_half()
    second = draw(st.sampled_from(["permuted", "changed", "own"]))
    if second == "own":
        b = draw_half()
    else:
        b = a[rng.permutation(half)]
        if second == "changed":
            b[rng.integers(half), rng.integers(cols)] += 1
    return np.concatenate((a, b))


@DETERMINISTIC
@given(key_matrices())
def test_ranks_agree_with_brute_force(keys):
    ours = _ranks(keys[:, 0], keys[:, 1:])
    expected = brute_ranks(keys)
    assert (ours is None) == (expected is None)
    if ours is not None:
        assert ours.tolist() == expected


@st.composite
def refine_inputs(draw):
    """Two word lists of one length on m <= 8 coordinates and initial
    colourings of their 2m coordinates and 2n words.  The second list is
    the image of the first under a coordinate permutation and a reordering
    of the words, perhaps with one word changed, or is drawn on its own.
    The second half of each colouring is the image of the first half, a
    shuffle of it (balanced either way), or now and then drawn on its own;
    colours need not be dense."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    word = st.integers(0, (1 << m) - 1)
    a = draw(st.lists(word, min_size=n, max_size=n))
    sigma = draw(st.permutations(range(m)))
    order = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["image", "changed", "own"]))
    if kind == "own":
        b = draw(st.lists(word, min_size=n, max_size=n))
    else:
        b = [permute_bits(a[i], sigma) for i in order]
        if kind == "changed":
            b[draw(st.integers(0, n - 1))] = draw(word)
    second = draw(st.sampled_from(["image", "image", "shuffle", "own"]))

    def colouring(size: int, high: int, image) -> np.ndarray:
        labels = st.lists(st.integers(0, high), min_size=size, max_size=size)
        first = draw(labels)
        if second == "image":
            rest = image(first)
        elif second == "shuffle":
            rest = draw(st.permutations(first))
        else:
            rest = draw(labels)
        return np.array(first + list(rest), dtype=np.int64)

    def coordinate_image(first):
        rest = [0] * m
        for j, c in zip(sigma, first):
            rest[j] = c
        return rest

    colors = colouring(m, draw(st.sampled_from([0, 1, 3, 2 * m])), coordinate_image)
    cells = colouring(n, 2, lambda first: [first[i] for i in order])
    return a, b, m, colors, cells


@DETERMINISTIC
@given(refine_inputs())
def test_refine_agrees_with_oracle(case):
    a, b, m, colors, cells = case
    ours = _refine(_Incidence(a, b, m), colors, cells)
    expected = brute_refine(a, b, m, colors.tolist(), cells.tolist())
    assert (ours is None) == (expected is None)
    if ours is not None:
        assert (ours[0].tolist(), ours[1].tolist()) == expected


@settings(DETERMINISTIC, max_examples=60)
@given(small_codes(max_m=7))
def test_enumerate_agrees_with_oracles(code):
    m = code.m
    group = enumerate_perm_automorphisms(code)
    assert group.order() == len(brute_perm_automorphisms(code))
    # The generators form a strong generating set along the base 0, 1, ...:
    # those fixing 0..k-1 pointwise move k exactly onto the images that
    # some automorphism fixing 0..k-1 gives it.
    for k in range(m):
        fixing = [g for g in group.generators if g[:k] == tuple(range(k))]
        orbit = {k}
        queue = [k]
        for pt in queue:
            for g in fixing:
                if g[pt] not in orbit:
                    orbit.add(g[pt])
                    queue.append(g[pt])
        for p in range(k, m):
            prefix = [(i, i) for i in range(k)] + [(k, p)]
            exists = plain_search_permutation(code.words, code.words, m, prefix) is not None
            assert exists == (p in orbit)


def test_translation_kernel(nr, pn, rm):
    assert span(nr.kernel, 16) == rm
    assert 1 << len(pn.kernel) == 32
    lin = span([0b011, 0b110], 3)
    assert span(lin.kernel, 3) == lin
    for beta in nr.words:
        assert (translate(nr, beta) == nr) == (beta in rm)


def test_assembled_generators(nr, rm, nr_generators):
    # permutation generators, a kernel basis, and one coset mover: the
    # permutation stabilizer moves the first nonzero coset leader's coset
    # onto the other six, so no other leader is searched
    identity = tuple(range(16))
    n_perm = sum(1 for g in nr_generators if g.beta == 0 and g.sigma != identity)
    n_trans = sum(1 for g in nr_generators if g.sigma == identity)
    assert n_perm == 5
    assert n_trans == 5  # dim of the kernel
    assert len(nr_generators) == n_perm + n_trans + 1
    for g in nr_generators:
        assert maps_onto(g, nr, nr)


def test_assembled_generators_reach_every_kernel_coset(nr, nr_generators):
    # cell 0 is the code; its single orbit is the orbit of the zero word
    zero_cell = verify_complete_transitivity(nr, nr_generators).cells[0]
    assert zero_cell.orbit_label == 0
    assert zero_cell.orbit_size == zero_cell.cell_size == nr.size


@st.composite
def codes_with_zero(draw):
    """A code containing 0 with m <= 7: random words, or a union of cosets
    of a random span (so the kernel, and the cosets assembly walks, are
    often nontrivial)."""
    m = draw(st.integers(2, 7))
    word = st.integers(0, (1 << m) - 1)
    if draw(st.booleans()):
        return Code(m, [0] + draw(st.lists(word, max_size=12)))
    subspace = span(draw(st.lists(word, min_size=1, max_size=3)), m).words
    reps = [0] + draw(st.lists(word, max_size=4))
    return Code(m, [v ^ r for r in reps for v in subspace])


@settings(DETERMINISTIC, max_examples=80)
@given(codes_with_zero())
def test_assembly_reaches_every_word_an_automorphism_reaches(code):
    # An automorphism sends 0 to c exactly when some coordinate permutation
    # maps C onto C + c, so the assembled generators must move 0 onto
    # those words and no others: the leaders they skip are reached.
    m = code.m
    gens = assemble_aut_generators(code, enumerate_perm_automorphisms(code))
    labels = brute_orbits(gens, m)
    reached = [v for v in range(1 << m) if labels[v] == 0]
    movable = [
        c for c in code.words
        if plain_search_permutation(code.words, translate(code, c).words, m) is not None
    ]
    assert reached == movable


def test_pn_assembly_from_nr_candidates_searches_nothing(
    nr, pn, nr_perm_group, nr_generators
):
    # NR's mover, with coordinate 0 fixed and dropped, moves PN's zero word
    # onto every other kernel coset: no search, no incidence, and the
    # generators that PN's own searches give.
    derived = punctured_perm_group(pn, nr, nr_perm_group)
    candidates = punctured_candidates(nr_generators, nr_perm_group)
    with mock.patch.object(symmetry, "_search_permutation") as search:
        gens = assemble_aut_generators(pn, derived, budget=0, candidates=candidates)
    assert search.call_count == 0
    assert gens == assemble_aut_generators(pn, enumerate_perm_automorphisms(pn))


def test_assembly_rejects_a_candidate_that_moves_the_code(nr, nr_perm_group):
    with pytest.raises(ValueError, match="candidate does not stabilize"):
        assemble_aut_generators(
            nr, nr_perm_group, candidates=[AutElement.translation(16, 1)]
        )


def test_assembly_rejects_a_permutation_generator_that_moves_the_code(nr):
    # NR's group is 2-transitive, and of order 40320 < 16!, so it holds no
    # transposition: with one it would hold them all
    swap = (1, 0) + tuple(range(2, 16))
    with pytest.raises(ValueError, match="permutation generator"):
        assemble_aut_generators(nr, PermGroup(16, [swap]))


@settings(DETERMINISTIC, max_examples=60)
@given(codes_with_zero(), st.randoms(use_true_random=False))
def test_assembly_with_candidates_reaches_the_same_orbit(code, rng):
    # Candidates that stabilize the code (here the assembled generators
    # themselves, shuffled) replace searches, never the orbit of 0.
    m = code.m
    group = enumerate_perm_automorphisms(code)
    gens = assemble_aut_generators(code, group)
    candidates = rng.sample(gens, len(gens))
    with_candidates = assemble_aut_generators(code, group, candidates=candidates)
    orbit = brute_orbits(gens, m)
    assert brute_orbits(with_candidates, m) == orbit


@settings(DETERMINISTIC, max_examples=80)
@given(codes_with_zero(), st.randoms(use_true_random=False))
def test_coset_labels_ignore_translations_in_the_span(code, rng):
    # A translation by a vector of span(basis) fixes every coset: adding
    # such translations anywhere among the generators leaves the labels.
    m = code.m
    gens = assemble_aut_generators(code, enumerate_perm_automorphisms(code))
    basis = _translation_subspace(gens, m)
    free = free_coordinates(basis, m)
    reps = permute_bits(np.arange(1 << len(free), dtype=np.uint32), free)
    extra = list(gens)
    for _ in range(rng.randint(1, 4)):
        beta = 0
        for b in basis:
            beta ^= b * rng.randint(0, 1)
        extra.insert(rng.randint(0, len(extra)), AutElement.translation(m, beta))
    labels = _coset_labels(gens, reps, basis)
    assert np.array_equal(_coset_labels(extra, reps, basis), labels)
    assert np.array_equal(_coset_labels(extra[::-1], reps, basis), labels)
    # one outside the span is kept: it joins the coset of r to that of r + v
    v = rng.randrange(1 << m)
    if reduce_mod(v, basis):
        joined = _coset_labels(gens + [AutElement.translation(m, v)], reps, basis)
        moved = np.searchsorted(reps, reduce_mod(reps ^ np.uint32(v), basis))
        assert np.array_equal(joined, joined[moved])


def test_mu_image_order(nr_generators):
    sigmas = sorted(set(g.sigma for g in nr_generators))
    assert PermGroup(16, sigmas).order() == 322560  # 2^4 times |A_8|


def test_vertex_orbits_no_generators():
    m = 6
    spheres = [orbits_on_sphere(PermGroup(m, []), k) for k in range(m + 1)]
    assert sum(res.orbit_count for res in spheres) == 64
    assert sum((res.sizes for res in spheres), ()) == (1,) * 64
    res = verify_complete_transitivity(Code(m, [0]), [])
    assert [c.cell_size for c in res.cells] == [1]
    assert not res.ok and res.witness == (1, 1, 2)


def test_vertex_orbits_of_symmetric_group_are_weight_classes():
    m = 6
    adjacent = [
        tuple(range(m))[:i] + (i + 1, i) + tuple(range(m))[i + 2:]
        for i in range(m - 1)
    ]
    spheres = [orbits_on_sphere(PermGroup(m, adjacent), k) for k in range(m + 1)]
    assert sum(res.orbit_count for res in spheres) == m + 1
    assert sorted(sum((res.sizes for res in spheres), ())) == sorted(
        [1, 6, 15, 20, 15, 6, 1]
    )


def test_vertex_orbits_respect_distance_partition(nr, nr_perm_group):
    from nrcodes.spectrum import distance_partition

    gens = [AutElement.permutation(16, g) for g in nr_perm_group.generators]
    labels = np.array(brute_orbits(gens, 16))
    dist = distance_partition(nr).dist_to_code
    # every orbit of a stabilizing group sits inside one cell
    for label in np.unique(labels)[:50]:
        members = np.nonzero(labels == label)[0]
        assert len(np.unique(dist[members])) == 1


def test_orbits_on_spheres(nr_perm_group, pn_perm_group):
    res = orbits_on_sphere(nr_perm_group, 4)
    assert res.orbit_count == 2
    assert sorted(res.sizes) == [140, 1680]
    for k in (1, 2, 3):
        assert orbits_on_sphere(nr_perm_group, k).orbit_count == 1
    res3 = orbits_on_sphere(pn_perm_group, 3)
    assert res3.orbit_count == 2
    assert sorted(res3.sizes) == [35, 420]
    with pytest.raises(ValueError):
        orbits_on_sphere(pn_perm_group, 16)


@st.composite
def generator_subsets(draw):
    """A code containing 0 with m <= 10 (random words, a span, a union of
    cosets of a span, or every word whose weight is in a random set, which
    all of S_m stabilizes) and some of its assembled generators: all, none,
    each kept with probability 1/2, or every one that is not a translation
    and each translation with probability 1/2.  Without all of them the
    orbits are often finer than the cells, or than the kernel cosets; with
    the last choice the translations kept often span a subspace that only
    the coordinate permutations close up to the kernel."""
    m = draw(st.integers(2, 10))
    word = st.integers(0, (1 << m) - 1)
    kind = draw(st.sampled_from(["random", "span", "cosets", "weights"]))
    if kind == "random":
        words = draw(st.lists(word, min_size=1, max_size=12))
    elif kind == "weights":
        weights = draw(st.sets(st.integers(1, m)))
        words = [v for v in range(1 << m) if v.bit_count() in weights]
    else:
        subspace = span(draw(st.lists(word, min_size=1, max_size=4)), m).words
        reps = [0] + (draw(st.lists(word, max_size=4)) if kind == "cosets" else [])
        words = [v ^ r for r in reps for v in subspace]
    code = Code(m, [0] + words)
    gens = assemble_aut_generators(code, enumerate_perm_automorphisms(code))
    keep = draw(st.sampled_from(["all", "none", "some", "some translations"]))
    if keep == "none":
        gens = []
    elif keep == "some":
        gens = [g for g in gens if draw(st.booleans())]
    elif keep == "some translations":
        identity = tuple(range(m))
        gens = [g for g in gens if g.sigma != identity or draw(st.booleans())]
    return code, gens


# The even-weight code of length 3 with the translation by 101 left out:
# the group still holds it, as the conjugate of the translation by 011
# by a coordinate permutation, and all 4 words form one orbit.
EVEN3_WITHOUT_101 = (
    Code(3, [0b000, 0b011, 0b101, 0b110]),
    [
        AutElement.permutation(3, (1, 0, 2)),
        AutElement.permutation(3, (2, 0, 1)),
        AutElement.translation(3, 0b011),
    ],
)


@settings(DETERMINISTIC, max_examples=80)
@given(generator_subsets())
@example(EVEN3_WITHOUT_101)
def test_orbits_agree_with_brute_closure(case):
    code, gens = case
    m = code.m
    labels = brute_orbits(gens, m)
    dist = [min((v ^ w).bit_count() for w in code.words) for v in range(1 << m)]
    cells, witness = [], None
    for i in range(max(dist) + 1):
        cell = [v for v in range(1 << m) if dist[v] == i]
        other = next((v for v in cell if labels[v] != labels[cell[0]]), None)
        if other is not None:
            witness = (i, cell[0], other)
            break
        label = labels[cell[0]]
        cells.append((i, len(cell), label, labels.count(label)))
    res = verify_complete_transitivity(code, gens)
    assert res.witness == witness
    assert [(c.cell, c.cell_size, c.orbit_label, c.orbit_size) for c in res.cells] == cells
    assert res.ok == (witness is None and all(c[1] == c[3] for c in cells))

    sigmas = [g.sigma for g in gens]
    perm_labels = brute_orbits([AutElement.permutation(m, s) for s in sigmas], m)
    for k in range(m + 1):
        on_sphere = [perm_labels[v] for v in range(1 << m) if v.bit_count() == k]
        sizes = [on_sphere.count(label) for label in sorted(set(on_sphere))]
        res_k = orbits_on_sphere(PermGroup(m, sigmas), k)
        assert (res_k.orbit_count, list(res_k.sizes)) == (len(sizes), sizes)


def test_complete_transitivity_memory(nr, nr_generators):
    # One 2^16-entry action table per generator peaked at 7.6 MB; tables
    # on the 2048 kernel-coset representatives peak at 1.5 MB.
    tracemalloc.start()
    try:
        verify_complete_transitivity(nr, nr_generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_complete_transitivity_nr(nr, nr_generators):
    res = verify_complete_transitivity(nr, nr_generators)
    assert res.ok
    assert [c.cell_size for c in res.cells] == [256, 4096, 30720, 28672, 1792]
    assert all(c.orbit_size == c.cell_size for c in res.cells)


def test_complete_transitivity_pn(pn, pn_generators):
    res = verify_complete_transitivity(pn, pn_generators)
    assert res.ok
    assert len(res.cells) == 4


@pytest.mark.parametrize("name, minima", [("nr", 5), ("pn", 4)])
def test_complete_transitivity_scans_orbit_minima_only(name, minima, request):
    # d(v, C) is computed for one vertex per orbit, the certificates'
    # orbit labels in cell order, not for every kernel-coset representative
    code = request.getfixturevalue(name)
    gens = request.getfixturevalue(f"{name}_generators")
    scan = mock.patch.object(
        symmetry, "_distances_to_code", wraps=symmetry._distances_to_code
    )
    with scan as spy:
        res = verify_complete_transitivity(code, gens)
    assert res.ok and spy.call_count == 1
    verts = spy.call_args.args[1].tolist()
    assert len(verts) == minima
    assert verts == [c.orbit_label for c in res.cells]


def test_complete_transitivity_of_a_code_without_zero():
    # Vertex 0 lies in cell 2 of {110}, so the orbit minima 0, 1, 3, 4
    # ascend in the cell order 2, 1, 0, 3: each cell's sizes must come
    # from its own minimum.  The stabilizer of a vertex, x = (w + s^-1(w),
    # s) for every coordinate permutation s, is transitive on each sphere.
    m, w = 3, 0b011
    gens = [
        AutElement(m, w ^ unpermute_bits(w, s), s)
        for s in itertools.permutations(range(m))
    ]
    res = verify_complete_transitivity(Code(m, [w]), gens)
    assert res.ok
    assert [(c.cell_size, c.orbit_label, c.orbit_size) for c in res.cells] == [
        (1, 0b011, 1), (3, 0b001, 3), (3, 0b000, 3), (1, 0b100, 1),
    ]


def test_complete_transitivity_negative():
    code = Code(2, [0b00, 0b11])
    res = verify_complete_transitivity(code, [AutElement.translation(2, 0)])
    assert not res.ok
    cell, a, b = res.witness
    assert cell == 0 and {a, b} == {0b00, 0b11}


def test_complete_transitivity_rejects_bad_generator(nr):
    swap = AutElement.translation(16, 1)  # moves the code
    with pytest.raises(ValueError):
        verify_complete_transitivity(nr, [swap])
