import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from nrcodes.codes import Code, puncture, span, translate
from nrcodes.hamming import permute_bits, unpermute_bits
from nrcodes.symmetry import (
    AutElement,
    PermGroup,
    SearchBudgetExceeded,
    _Budget,
    _ranks,
    _search_permutation,
    assemble_aut_generators,
    coordinate_invariant_partition,
    enumerate_perm_automorphisms,
    find_equivalence,
    format_aut_element,
    maps_onto,
    orbits_on_sphere,
    parse_aut_element,
    project_automorphism,
    read_aut_elements,
    translation_kernel,
    verify_complete_transitivity,
    vertex_orbits,
    write_aut_elements,
)
from oracles import (
    brute_perm_automorphisms,
    brute_ranks,
    mulclose_order,
    plain_search_permutation,
)

# Node budget for the regression guard below: every search it covers
# (the 15 puncture equivalences and the NR and PN permutation stabilizers)
# must finish within it.  It is at most 10 times the smallest puncture
# search (3 nodes).
GUARD_BUDGET = 30
DETERMINISTIC = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def random_element(rng: random.Random, m: int) -> AutElement:
    sigma = list(range(m))
    rng.shuffle(sigma)
    return AutElement(m, rng.randrange(1 << m), tuple(sigma))


def test_group_laws_randomized():
    rng = random.Random(42)
    m = 16
    identity = AutElement.identity(m)
    for _ in range(1000):
        x = random_element(rng, m)
        y = random_element(rng, m)
        z = random_element(rng, m)
        v = rng.randrange(1 << m)
        assert (x * y).act(v) == y.act(x.act(v))
        assert (x * y) * z == x * (y * z)
        assert x * identity == x == identity * x
        assert (x * x.inverse()).is_identity()
        assert x.inverse().act(x.act(v)) == v


def test_act_examples():
    m = 8
    assert AutElement.identity(m).act(0b1011) == 0b1011
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


def test_project_automorphism_translation():
    x = AutElement.translation(4, 0b0101)
    chi = project_automorphism(x, (1, 2))
    assert chi == AutElement.translation(2, 0b01)
    assert project_automorphism(AutElement.identity(4), (2, 4)).is_identity()


def test_project_automorphism_requires_stable_coords():
    swap = AutElement.permutation(4, (1, 0, 2, 3))
    with pytest.raises(ValueError):
        project_automorphism(swap, (1, 3))


def test_project_automorphism_commutes_with_projection(nr, nr_generators):
    coords = tuple(range(2, 17))
    positions = [i - 1 for i in coords]
    pnc = puncture(nr, 1)
    rng = random.Random(6)
    fixing = [g for g in nr_generators if g.sigma[0] == 0]
    assert fixing  # kernel translations at least
    for g in fixing:
        chi = project_automorphism(g, coords)
        assert maps_onto(chi, pnc, pnc)
        for _ in range(25):
            v = rng.randrange(1 << 16)
            assert unpermute_bits(g.act(v), positions) == chi.act(
                unpermute_bits(v, positions)
            )


def test_aut_element_file_format(tmp_path):
    rng = random.Random(7)
    elems = [random_element(rng, 16) for _ in range(5)]
    line = format_aut_element(elems[0])
    assert line.startswith("beta=") and " sigma=" in line
    assert parse_aut_element(line) == elems[0]
    path = tmp_path / "gens.aut"
    write_aut_elements(elems, path)
    assert read_aut_elements(path) == elems


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


def test_perm_group_order_is_transversal_product(nr_perm_group):
    rows = nr_perm_group._reps
    prod = 1
    for k, row in enumerate(rows):
        for j, rep in row.items():
            assert rep[:k] == tuple(range(k)) and rep[k] == j
        prod *= len(row)
    assert prod == nr_perm_group.order() == 40320


def test_invariant_partition(nr):
    assert coordinate_invariant_partition(nr) == (tuple(range(1, 17)),)
    cells = coordinate_invariant_partition(Code(3, [0b000, 0b011]))
    assert set(cells) == {(3,), (1, 2)}


def test_invariant_partition_idempotent(pn):
    first = coordinate_invariant_partition(pn)
    again = coordinate_invariant_partition(pn)
    assert first == again


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
    from nrcodes.hamming import from_string

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
        enumerate_perm_automorphisms(nr, budget=10)


def test_search_node_budget_guard(nr, pn):
    base = puncture(nr, 1)
    for p in range(2, 17):
        assert find_equivalence(puncture(nr, p), base, budget=GUARD_BUDGET) is not None
    assert enumerate_perm_automorphisms(nr, budget=GUARD_BUDGET).order() == 40320
    assert enumerate_perm_automorphisms(pn, budget=GUARD_BUDGET).order() == 2520


def test_search_node_counts(nr, pn):
    # A search takes exactly n nodes when it finishes within a budget of n
    # and runs out of a budget of n - 1.
    def assert_nodes(search, n):
        search(n)
        with pytest.raises(SearchBudgetExceeded):
            search(n - 1)

    assert_nodes(lambda b: enumerate_perm_automorphisms(nr, budget=b), 26)
    assert_nodes(lambda b: enumerate_perm_automorphisms(pn, budget=b), 11)
    for p in range(2, 17):  # 45 nodes over the 15 puncture equivalences
        assert_nodes(lambda b: find_equivalence(puncture(nr, p), pn, budget=b), 3)


def test_negative_budget_rejected(nr):
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_perm_automorphisms(nr, budget=-1)


@st.composite
def small_codes(draw, max_m: int = 8):
    m = draw(st.integers(2, max_m))
    return Code(m, draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=10)))


@st.composite
def small_code_pairs(draw):
    """A small code, an image of it under a random coordinate permutation
    (sometimes with one word replaced), and a stabilizer-chain prefix."""
    code = draw(small_codes())
    m = code.m
    sigma = draw(st.permutations(range(m)))
    image = [permute_bits(w, sigma) for w in code.words]
    if draw(st.booleans()):
        image[draw(st.integers(0, len(image) - 1))] = draw(st.integers(0, (1 << m) - 1))
    k = draw(st.integers(0, m - 1))
    prefix = [(i, i) for i in range(k)] + [(k, draw(st.integers(k, m - 1)))]
    if draw(st.booleans()):
        prefix = []
    return code, Code(m, image), prefix


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
        return a, Code(m, [permute_bits(w, sigma) for w in a.words]), []
    return a, cycle_code(), []


@DETERMINISTIC
@given(st.one_of(small_code_pairs(), cycle_union_pairs()))
def test_search_agrees_with_plain_oracle(case):
    a, b, prefix = case
    ours = _search_permutation(a.words, b.words, a.m, prefix, _Budget(None))
    plain = plain_search_permutation(a.words, b.words, a.m, prefix)
    assert (ours is None) == (plain is None)
    if ours is not None:
        assert sorted(permute_bits(w, ours) for w in a.words) == list(b.words)
        assert all(ours[c] == p for c, p in prefix)


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


def _act_by_definition(beta: int, sigma, v: int) -> int:
    """Translate by beta, then move bit j to position sigma[j]."""
    return sum((((v ^ beta) >> j) & 1) << sj for j, sj in enumerate(sigma))


@pytest.mark.parametrize("name", ["rm", "pn", "nr"])
@pytest.mark.parametrize("seed", [1, 2])
def test_find_equivalence_on_random_images(name, seed, request):
    code = request.getfixturevalue(name)
    m = code.m
    rng = random.Random(seed)
    beta = rng.randrange(1 << m)
    sigma = list(range(m))
    rng.shuffle(sigma)
    image = Code(m, [_act_by_definition(beta, sigma, w) for w in code.words])
    x = find_equivalence(code, image)
    assert x is not None
    assert sorted(_act_by_definition(x.beta, x.sigma, w) for w in code.words) == list(image.words)

    # Move one word one step towards its nearest neighbour: the minimum
    # distance drops, so no automorphism of the Hamming graph can match.
    words = list(image.words)
    w = words[rng.randrange(len(words))]
    u = min((v for v in words if v != w), key=lambda v: (v ^ w).bit_count())
    j = ((u ^ w) & -(u ^ w)).bit_length() - 1
    words[words.index(w)] = w ^ (1 << j)
    broken = Code(m, words)
    assert broken.size == image.size and broken.min_distance < image.min_distance
    assert find_equivalence(code, broken) is None


def test_translation_kernel(nr, pn, rm):
    assert translation_kernel(nr) == rm
    assert translation_kernel(pn).size == 32
    lin = span([0b011, 0b110], 3)
    assert translation_kernel(lin) == lin
    for beta in nr.words:
        if beta not in rm:
            assert translate(nr, beta) != nr
    with pytest.raises(ValueError):
        translation_kernel(Code(3, [1, 2]))


def test_find_equivalence_identity_and_translation(nr):
    x = find_equivalence(nr, nr)
    assert x is not None and maps_onto(x, nr, nr)
    gamma = nr.words[5]
    y = find_equivalence(nr, translate(nr, gamma))
    assert y is not None
    assert all(y.act(w) ^ gamma in nr for w in nr.words)
    # a source code without the zero word: its least word is moved
    shifted = translate(nr, 1)
    z = find_equivalence(shifted, nr)
    assert z is not None and maps_onto(z, shifted, nr)


def test_find_equivalence_punctures(nr):
    a = puncture(nr, 1)
    b = puncture(nr, 2)
    x = find_equivalence(b, a)
    assert x is not None
    assert sorted(x.act(w) for w in b.words) == list(a.words)


def test_find_equivalence_negative(nr):
    rng = random.Random(13)
    other = Code(16, rng.sample(range(1 << 16), 256))
    assert find_equivalence(nr, other) is None
    assert find_equivalence(nr, Code(16, [0, 3])) is None


def test_assembled_generators(nr, rm, nr_generators):
    # permutation generators, a kernel basis, and 7 coset movers
    n_perm = sum(1 for g in nr_generators if g.beta == 0 and not g.is_identity())
    n_trans = sum(1 for g in nr_generators if g.sigma == tuple(range(16)))
    assert n_trans == 5  # dim of the kernel
    assert len(nr_generators) == n_perm + n_trans + 7
    for g in nr_generators:
        assert maps_onto(g, nr, nr)


def test_assembled_generators_reach_every_kernel_coset(nr, nr_generators):
    orbit = vertex_orbits(nr_generators, 16)
    zero_orbit = np.nonzero(orbit.labels == orbit.labels[0])[0]
    assert sorted(int(v) for v in zero_orbit) == list(nr.words)


def test_mu_image_order(nr_generators):
    sigmas = sorted(set(g.sigma for g in nr_generators))
    assert PermGroup(16, sigmas).order() == 322560  # 2^4 times |A_8|


def test_vertex_orbits_no_generators():
    orbit = vertex_orbits([], 6)
    assert orbit.orbit_count == 64
    assert orbit.sizes == (1,) * 64


def test_vertex_orbits_of_symmetric_group_are_weight_classes():
    m = 6
    gens = [
        AutElement.permutation(m, tuple(range(m))[:i] + (i + 1, i) + tuple(range(m))[i + 2:])
        for i in range(m - 1)
    ]
    orbit = vertex_orbits(gens, m)
    assert orbit.orbit_count == m + 1
    assert sorted(orbit.sizes) == sorted(
        [1, 6, 15, 20, 15, 6, 1]
    )


def test_vertex_orbits_respect_distance_partition(nr, nr_perm_group):
    from nrcodes.spectrum import distance_partition

    gens = [AutElement.permutation(16, g) for g in nr_perm_group.generators]
    orbit = vertex_orbits(gens, 16)
    dist = distance_partition(nr).dist_to_code
    # every orbit of a stabilizing group sits inside one cell
    for label in np.unique(orbit.labels)[:50]:
        members = np.nonzero(orbit.labels == label)[0]
        assert len(np.unique(dist[members])) == 1


def test_orbits_on_spheres(nr_perm_orbits, pn_perm_orbits):
    res = orbits_on_sphere(nr_perm_orbits, 4)
    assert res.orbit_count == 2
    assert sorted(res.sizes) == [140, 1680]
    for k in (1, 2, 3):
        assert orbits_on_sphere(nr_perm_orbits, k).orbit_count == 1
    res3 = orbits_on_sphere(pn_perm_orbits, 3)
    assert res3.orbit_count == 2
    assert sorted(res3.sizes) == [35, 420]


def test_complete_transitivity_nr(nr, nr_generators):
    res = verify_complete_transitivity(nr, nr_generators)
    assert res.ok
    assert [c.cell_size for c in res.cells] == [256, 4096, 30720, 28672, 1792]
    assert all(c.orbit_size == c.cell_size for c in res.cells)


def test_complete_transitivity_pn(pn, pn_generators):
    res = verify_complete_transitivity(pn, pn_generators)
    assert res.ok
    assert len(res.cells) == 4


def test_complete_transitivity_negative():
    code = Code(2, [0b00, 0b11])
    res = verify_complete_transitivity(code, [AutElement.identity(2)])
    assert not res.ok
    cell, a, b = res.witness
    assert cell == 0 and {a, b} == {0b00, 0b11}


def test_complete_transitivity_rejects_bad_generator(nr):
    swap = AutElement.translation(16, 1)  # moves the code
    with pytest.raises(ValueError):
        verify_complete_transitivity(nr, [swap])
