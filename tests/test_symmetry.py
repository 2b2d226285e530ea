import itertools
import math
import random
import time
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
from nrcodes.hamming import WorkLimitExceeded, from_string, permute_bits, unpermute_bits
from nrcodes.spectrum import (
    DistancePartition,
    completely_regular_check,
    distance_partition,
)
from nrcodes.symmetry import (
    AutElement,
    PermGroup,
    _affine_generators,
    _affine_points,
    _coset_labels,
    _frame_bound,
    _translation_subspace,
    affine_stabilizer,
    drop_coordinate_0,
    format_aut_element,
    maps_onto,
    orbits_on_sphere,
    punctured_perm_group,
    verify_complete_transitivity,
)
from oracles import (
    brute_orbits,
    brute_perm_automorphisms,
    mulclose,
    mulclose_order,
    plain_movers,
    plain_perm_generators,
)

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
        assert hash((x * y) * z) == hash(x * (y * z))
        assert x * identity == x == identity * x
        assert x * x.inverse() == identity
        assert hash(x * x.inverse()) == hash(identity)
        assert x != (x.m, x.beta, x.sigma)
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


@settings(DETERMINISTIC, max_examples=50)  # the closure of S_6 takes about 1 ms
@given(perm_generators(6))
def test_perm_group_order_matches_closure(case):
    n, gens = case
    assert PermGroup(n, gens).order() == mulclose_order(gens, n)


def test_mulclose_order_on_groups_of_known_order():
    assert mulclose_order([], 5) == 1
    assert mulclose_order([(1, 2, 3, 4, 5, 6, 0)], 7) == 7
    assert mulclose_order([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], 6) == 720
    identity = (0, 1, 2, 3)
    assert mulclose_order([identity, (1, 0, 2, 3), identity], 4) == 2
    assert mulclose_order([identity, identity], 4) == 1


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
@given(perm_generators(6))
def test_perm_group_membership_matches_closure(case):
    # `g in group` for every permutation of 0..n-1, as images and as bytes
    n, gens = case
    group, closure = PermGroup(n, gens), mulclose(gens, n)
    for g in itertools.permutations(range(n)):
        assert (g in group) == (bytes(g) in group) == (g in closure)
    assert np.array(gens[0]) in group
    with pytest.raises(ValueError, match="not a permutation"):
        _ = tuple(range(n + 1)) in group


@settings(DETERMINISTIC, max_examples=50)
@given(perm_generators(12), st.integers(1, 3))
def test_extended_perm_group_matches_one_built_at_once(case, split):
    # A table grown in place by `_add` is the one a build from all the
    # generators gives, row for row.
    n, gens = case
    gens = gens + [tuple(reversed(range(n)))]
    split = min(split, len(gens))
    grown = PermGroup(n, gens[:split])
    grown._add(gens[split:])
    at_once = PermGroup(n, gens)
    assert grown.generators == at_once.generators
    assert grown.order() == at_once.order()
    assert all(dict(grown.row(k)) == dict(at_once.row(k)) for k in range(n))


@settings(DETERMINISTIC, max_examples=50)
@given(perm_generators(24))
def test_perm_group_views_are_tuples_of_python_ints(case):
    # The table holds bytes; `generators` and every row element read as
    # tuples of Python ints, on a fresh build (one generator given as a
    # numpy array) and once grown in place by `_add`.
    n, gens = case

    def int_tuple(p) -> bool:
        return type(p) is tuple and len(p) == n and all(type(i) is int for i in p)

    group = PermGroup(n, [np.array(gens[0])])
    for extra in ([], gens[1:] + [tuple(reversed(range(n)))]):
        group._add(extra)
        assert all(int_tuple(p) for p in group.generators)
        for k in range(n):
            assert all(type(j) is int and int_tuple(p) for j, p in group.row(k).items())


def test_perm_group_order_is_transversal_product(nr_perm_group):
    prod = 1
    for k in range(nr_perm_group.degree):
        row = nr_perm_group.row(k)
        for j, rep in row.items():
            assert rep[:k] == tuple(range(k)) and rep[k] == j
        prod *= len(row)
    assert prod == nr_perm_group.order() == 40320


def oracle_generators(code: Code) -> list[AutElement]:
    """Generators of the full stabilizer of a code containing the zero
    word: the permutation stabilizer's generators, a kernel basis and the
    movers, from the oracle's plain backtrack."""
    m = code.m
    perms = plain_perm_generators(code)
    return (
        [AutElement.permutation(m, g) for g in perms]
        + [AutElement.translation(m, b) for b in code.kernel]
        + [AutElement(m, b, s) for b, s in plain_movers(code, perms)]
    )


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
    # The random-code tests take their generators from the oracle's plain
    # backtrack: they must generate the whole permutation stabilizer.
    if words is None:
        rng = random.Random(m)
        words = [0] + rng.sample(range(1, 1 << m), 4)
    code = Code(m, words)
    brute = brute_perm_automorphisms(code)
    gens = plain_perm_generators(code)
    assert PermGroup(m, gens).order() == len(brute)
    assert mulclose_order(gens, m) == len(brute)


RM13_ROWS = ("11111111", "01010101", "00110011", "00001111")


def test_backtrack_matches_brute_force_rm13():
    # RM(1,3) is its own kernel: the affine route's group is all of
    # AGL(3,2), reached with no image of the code but itself.
    code = span([from_string(s)[0] for s in RM13_ROWS], 8)
    brute = brute_perm_automorphisms(code)
    group, movers = affine_stabilizer(code)
    assert group.order() == len(brute) == 1344
    assert set(group.generators) <= set(brute) and movers == []
    assert PermGroup(8, plain_perm_generators(code)).order() == 1344


@pytest.mark.parametrize("seed", [0, 1])
def test_affine_stabilizer_matches_brute_force(seed):
    # Three cosets of RM(1,3): an odd number, so no translation outside
    # RM(1,3) keeps the code, and its kernel is RM(1,3).
    rng = random.Random(seed)
    kernel = span([from_string(s)[0] for s in RM13_ROWS], 8)
    u, v = rng.sample([w for w in range(1, 256) if w not in kernel], 2)
    code = Code(8, [w ^ r for r in (0, u, v) for w in kernel.words])
    assert span(code.kernel, 8) == kernel
    brute = brute_perm_automorphisms(code)
    group, movers = affine_stabilizer(code)
    assert group.order() == len(brute)
    assert set(group.generators) <= set(brute)
    for x in movers:
        assert maps_onto(x, code, code) and x.act(0)


def test_frame_bound_is_the_affine_group_order(rm):
    assert _frame_bound(rm) == 16 * 15 * 14 * 12 * 8 == 322560
    assert _frame_bound(span([from_string(s)[0] for s in RM13_ROWS], 8)) == 1344


def test_affine_generators_and_nr_group_orders_match_sympy(nr, nr_perm_group):
    def order(gens):
        return PermutationGroup([Permutation(list(g)) for g in gens]).order()

    affine = _affine_generators(_affine_points(nr.kernel, 16))
    assert len(affine) == 13
    assert order(affine) == 322560
    assert order(nr_perm_group.generators) == 40320


def test_affine_stabilizer_rejects_a_planted_transposition(nr, monkeypatch):
    affine = symmetry._affine_generators
    swap = (1, 0) + tuple(range(2, 16))
    monkeypatch.setattr(symmetry, "_affine_generators", lambda p: affine(p) + [swap])
    with pytest.raises(RuntimeError, match="does not keep the kernel"):
        affine_stabilizer(nr)


def test_affine_stabilizer_needs_the_whole_affine_group(nr, monkeypatch):
    # Without the translation the walk's group is NR's stabilizer in
    # GL(4,2), whose order times NR's orbit falls short of the frame bound.
    affine = symmetry._affine_generators
    monkeypatch.setattr(symmetry, "_affine_generators", lambda p: affine(p)[1:])
    with pytest.raises(RuntimeError, match="differs from the frame bound 322560"):
        affine_stabilizer(nr)


def test_affine_stabilizer_rejects_other_kernels(pn, golay):
    # PN's kernel has 32 words on 15 coordinates, Golay's is all of it,
    # and {0, 1, 3} has odd size, so a trivial kernel.
    for code in (pn, golay, Code(16, [0, 1, 3])):
        with pytest.raises(ValueError, match="not RM"):
            affine_stabilizer(code)


@pytest.mark.parametrize("seed", range(10))
def test_affine_stabilizer_on_images_of_nr(nr, seed):
    sigma = list(range(16))
    random.Random(seed).shuffle(sigma)
    image = Code(16, permute_bits(nr.words_u32(), sigma))
    with pytest.raises(WorkLimitExceeded):
        affine_stabilizer(image, budget=7)
    group, movers = affine_stabilizer(image, budget=8)  # 8 images
    assert group.order() == 40320
    gens = (
        [AutElement.permutation(16, g) for g in group.generators]
        + [AutElement.translation(16, b) for b in image.kernel]
        + movers[:1]
    )
    res = verify_complete_transitivity(image, gens, distance_partition(image))
    assert res.ok
    assert [c.cell_size for c in res.cells] == [256, 4096, 30720, 28672, 1792]


def test_nr_permutation_stabilizer_order(nr_perm_group):
    assert nr_perm_group.order() == 40320  # 2^4 times |A_7|


def test_pn_permutation_stabilizer_order(pn_perm_group):
    assert pn_perm_group.order() == 2520  # |A_7|


def test_budget_exceeded(nr):
    with pytest.raises(WorkLimitExceeded, match="node budget of 5") as info:
        affine_stabilizer(nr, budget=5)
    assert info.value.estimate > info.value.limit == 5


def test_search_node_counts(nr, monkeypatch):
    # The orbit walk is a breadth-first search of NR's images under
    # AGL(4,2), one node per image: it takes exactly 8 nodes, finishing
    # within a budget of 8 and running out of one of 7.  It sifts 6
    # Schreier generators and keeps the 5 that grow the order to 40320.
    with pytest.raises(WorkLimitExceeded):
        affine_stabilizer(nr, budget=7)
    contains = PermGroup.__contains__
    tried = []

    def counted(self, g):
        if not isinstance(g, bytes):  # the walk's tests; `_add` sifts bytes
            tried.append(g)
        return contains(self, g)

    monkeypatch.setattr(PermGroup, "__contains__", counted)
    group, movers = affine_stabilizer(nr, budget=8)
    assert (len(tried), len(group.generators), group.order()) == (6, 5, 40320)
    # the 12 transvections move NR; the translation keeps it
    assert len(movers) == 12 and all(x.sigma[0] == 0 for x in movers)


def test_punctured_perm_group_of_pn(nr, pn, nr_perm_group):
    # PN's group read off NR's Sims table is the stabilizer of coordinate 0
    # in NR's group, as sympy computes it from NR's generators.
    derived = punctured_perm_group(pn, nr, nr_perm_group)
    gens = [Permutation(list(g)) for g in nr_perm_group.generators]
    stabilizer = PermutationGroup(gens).stabilizer(0)
    assert derived.order() == stabilizer.order() == 2520
    for g in derived.generators:
        assert stabilizer.contains(Permutation([0] + [s + 1 for s in g]))


def test_punctured_perm_group_rejects_a_code_that_is_no_even_extension(
    nr, pn, nr_perm_group
):
    # NR with coordinate 1 flipped: dropping it still gives PN, but every
    # word has odd weight
    odd = translate(nr, 1)
    with pytest.raises(ValueError, match="even-weight extension"):
        punctured_perm_group(pn, odd, PermGroup(16))
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
        patch.setattr(PermGroup, "_add", lambda self, gens: None)
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
    # (`mulclose_order`, one product per element and generator) is their count.
    punctured = Code(code.m - 1, [w >> 1 for w in code.words])
    group = PermGroup(code.m, plain_perm_generators(code))
    derived = punctured_perm_group(punctured, code, group)
    brute = brute_perm_automorphisms(punctured)
    assert derived.order() == len(brute)
    assert set(derived.generators) <= set(brute)


def test_negative_budget_rejected(nr):
    with pytest.raises(ValueError, match="non-negative"):
        affine_stabilizer(nr, budget=-1)


def test_translation_kernel(nr, pn, rm):
    assert span(nr.kernel, 16) == rm
    assert 1 << len(pn.kernel) == 32
    lin = span([0b011, 0b110], 3)
    assert span(lin.kernel, 3) == lin
    for beta in nr.words:
        assert (translate(nr, beta) == nr) == (beta in rm)


def test_assembled_generators(nr, rm, nr_generators):
    # permutation generators, a kernel basis, and one of the 12 movers: the
    # permutation stabilizer carries its image coset onto the other six
    identity = tuple(range(16))
    n_perm = sum(1 for g in nr_generators if g.beta == 0 and g.sigma != identity)
    n_trans = sum(1 for g in nr_generators if g.sigma == identity)
    assert n_perm == 5
    assert n_trans == 5  # dim of the kernel
    assert len(nr_generators) == n_perm + n_trans + 1
    for g in nr_generators:
        assert maps_onto(g, nr, nr)


def test_assembled_generators_reach_every_kernel_coset(nr, nr_generators):
    # cell 0 is the code; its single orbit is the orbit of the zero word.
    # Without the mover the permutations and translations keep the kernel
    # coset of the zero word, so cell 0 splits.
    partition = distance_partition(nr)
    zero_cell = verify_complete_transitivity(nr, nr_generators, partition).cells[0]
    assert zero_cell.orbit_label == 0
    assert zero_cell.orbit_size == zero_cell.cell_size == nr.size
    res = verify_complete_transitivity(nr, nr_generators[:-1], partition)
    assert not res.ok and res.cells == () and res.witness[:2] == (0, 0)


@st.composite
def codes_with_zero(draw):
    """A code containing 0 with m <= 7: random words, or a union of cosets
    of a random span (so the kernel, and the cosets the orbit labels run
    on, are often nontrivial)."""
    m = draw(st.integers(2, 7))
    word = st.integers(0, (1 << m) - 1)
    if draw(st.booleans()):
        return Code(m, [0] + draw(st.lists(word, max_size=12)))
    subspace = span(draw(st.lists(word, min_size=1, max_size=3)), m).words
    reps = [0] + draw(st.lists(word, max_size=4))
    return Code(m, [v ^ r for r in reps for v in subspace])


def test_pn_assembly_from_nr_candidates_searches_nothing(pn, nr_affine, pn_generators):
    # NR's movers, with coordinate 0 fixed and dropped, are PN's: the first
    # moves PN's zero word onto a kernel coset that PN's permutations then
    # carry onto every other one, as cell 0 of PN's transitivity check
    # shows, so PN takes 4 permutations, 5 translations and 1 mover.
    identity = tuple(range(15))
    for x in map(drop_coordinate_0, nr_affine[1]):
        assert maps_onto(x, pn, pn)
    kinds = [(g.beta == 0, g.sigma == identity) for g in pn_generators]
    assert kinds == [(True, False)] * 4 + [(False, True)] * 5 + [(False, False)]


@settings(DETERMINISTIC, max_examples=80)
@given(codes_with_zero(), st.randoms(use_true_random=False))
def test_coset_labels_ignore_translations_in_the_span(code, rng):
    # A translation by a vector of span(basis) fixes every coset: adding
    # such translations anywhere among the generators leaves the labels.
    m = code.m
    gens = oracle_generators(code)
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
    assert sum(map(len, spheres)) == 64
    assert sum(spheres, ()) == (1,) * 64
    code = Code(m, [0])
    res = verify_complete_transitivity(code, [], distance_partition(code))
    assert [c.cell_size for c in res.cells] == [1]
    assert not res.ok and res.witness == (1, 1, 2)


def test_vertex_orbits_of_symmetric_group_are_weight_classes():
    m = 6
    adjacent = [
        tuple(range(m))[:i] + (i + 1, i) + tuple(range(m))[i + 2:]
        for i in range(m - 1)
    ]
    spheres = [orbits_on_sphere(PermGroup(m, adjacent), k) for k in range(m + 1)]
    assert sum(map(len, spheres)) == m + 1
    assert sorted(sum(spheres, ())) == sorted(
        [1, 6, 15, 20, 15, 6, 1]
    )


def test_vertex_orbits_respect_distance_partition(nr, nr_perm_group):
    gens = [AutElement.permutation(16, g) for g in nr_perm_group.generators]
    labels = np.array(brute_orbits(gens, 16))
    dist = distance_partition(nr).distance(np.arange(1 << 16, dtype=np.uint32))
    # every orbit of a stabilizing group sits inside one cell
    for label in np.unique(labels)[:50]:
        members = np.nonzero(labels == label)[0]
        assert len(np.unique(dist[members])) == 1


def test_orbits_on_spheres(nr_perm_group, pn_perm_group):
    assert sorted(orbits_on_sphere(nr_perm_group, 4)) == [140, 1680]
    for k in (1, 2, 3):
        assert len(orbits_on_sphere(nr_perm_group, k)) == 1
    assert sorted(orbits_on_sphere(pn_perm_group, 3)) == [35, 420]
    with pytest.raises(ValueError):
        orbits_on_sphere(pn_perm_group, 16)


@st.composite
def generator_subsets(draw):
    """A code containing 0 with m <= 10 (random words, a span, a union of
    cosets of a span, or every word whose weight is in a random set, which
    all of S_m stabilizes) and some of its generators from the oracle
    (`oracle_generators`): all, none,
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
    gens = oracle_generators(code)
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
    res = verify_complete_transitivity(code, gens, distance_partition(code))
    assert res.witness == witness
    assert [
        (i, c.cell_size, c.orbit_label, c.orbit_size) for i, c in enumerate(res.cells)
    ] == cells
    assert res.ok == (witness is None and all(c[1] == c[3] for c in cells))

    sigmas = [g.sigma for g in gens]
    perm_labels = brute_orbits([AutElement.permutation(m, s) for s in sigmas], m)
    for k in range(m + 1):
        on_sphere = [perm_labels[v] for v in range(1 << m) if v.bit_count() == k]
        sizes = [on_sphere.count(label) for label in sorted(set(on_sphere))]
        assert list(orbits_on_sphere(PermGroup(m, sigmas), k)) == sizes


def test_complete_transitivity_memory(nr, nr_generators):
    # One 2^16-entry action table per generator peaked at 7.6 MB; tables
    # on the 2048 kernel-coset representatives peak at 1.5 MB.
    partition = distance_partition(nr)
    tracemalloc.start()
    try:
        verify_complete_transitivity(nr, nr_generators, partition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_complete_transitivity_nr(nr, nr_generators):
    res = verify_complete_transitivity(nr, nr_generators, distance_partition(nr))
    assert res.ok
    assert [c.cell_size for c in res.cells] == [256, 4096, 30720, 28672, 1792]
    assert all(c.orbit_size == c.cell_size for c in res.cells)


def test_complete_transitivity_pn(pn, pn_generators):
    res = verify_complete_transitivity(pn, pn_generators, distance_partition(pn))
    assert res.ok
    assert len(res.cells) == 4


def test_complete_transitivity_on_images_of_pn(pn, pn_generators):
    # 10 seeded images phi(v) = sigma(v + beta), which need not hold the
    # zero word, with PN's generators conjugated by phi: each is
    # completely transitive with PN's cells.
    rng = random.Random("pn-images")
    start = time.perf_counter()
    for _ in range(10):
        phi = random_element(rng, 15)
        image = Code(15, permute_bits(pn.words_u32() ^ np.uint32(phi.beta), phi.sigma))
        gens = [phi.inverse() * g * phi for g in pn_generators]
        res = verify_complete_transitivity(image, gens, distance_partition(image))
        assert res.ok
        assert [c.cell_size for c in res.cells] == [256, 3840, 26880, 1792]
        assert all(c.orbit_size == c.cell_size for c in res.cells)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name, minima", [("nr", 5), ("pn", 4)])
def test_complete_transitivity_scans_orbit_minima_only(name, minima, request):
    # d(v, C) is read for one vertex per orbit, the certificates' orbit
    # labels in cell order, not for every kernel-coset representative
    code = request.getfixturevalue(name)
    gens = request.getfixturevalue(f"{name}_generators")
    partition = distance_partition(code)
    read = mock.patch.object(
        DistancePartition, "distance", autospec=True,
        side_effect=DistancePartition.distance,
    )
    with read as spy:
        res = verify_complete_transitivity(code, gens, partition)
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
    code = Code(m, [w])
    res = verify_complete_transitivity(code, gens, distance_partition(code))
    assert res.ok
    assert [(c.cell_size, c.orbit_label, c.orbit_size) for c in res.cells] == [
        (1, 0b011, 1), (3, 0b001, 3), (3, 0b000, 3), (1, 0b100, 1),
    ]


def test_complete_transitivity_negative():
    code = Code(2, [0b00, 0b11])
    res = verify_complete_transitivity(
        code, [AutElement.translation(2, 0)], distance_partition(code)
    )
    assert not res.ok
    cell, a, b = res.witness
    assert cell == 0 and {a, b} == {0b00, 0b11}


def test_complete_transitivity_rejects_another_codes_partition(nr, pn, nr_generators):
    # NR + e_1 has NR's kernel, so only cell 0 of its partition, read off
    # the labels, tells it from NR's; PN's has another length and kernel.
    shifted = translate(nr, 1)
    assert shifted.kernel == nr.kernel
    for other in (shifted, pn):
        swept, checked = distance_partition(other), completely_regular_check(other)
        for partition in (swept, checked.partition):
            with pytest.raises(ValueError, match="partition is not the code's"):
                verify_complete_transitivity(nr, nr_generators, partition)


def test_complete_transitivity_rejects_bad_generator(nr):
    swap = AutElement.translation(16, 1)  # moves the code
    with pytest.raises(ValueError):
        verify_complete_transitivity(nr, [swap], distance_partition(nr))
