import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrcodes import golay24, spectrum
from nrcodes.codes import Code, kernel_basis, span
from nrcodes.hamming import from_string, krawtchouk, permute_bits, weight_masks
from nrcodes.spectrum import (
    CR_WORK_LIMIT,
    ConstraintRow,
    FeasibilityError,
    RegularityWorkExceeded,
    _profile_block,
    _propagate_bounds,
    _transform_width,
    completely_regular_check,
    design_arithmetic,
    design_check,
    distance_distribution,
    distance_partition,
    feasible_distributions,
    lambda_upper_bound,
    macwilliams_transform,
)
from nrcodes.symmetry import _distances_to_code
from oracles import brute_design, brute_profile, brute_regularity

NR_DIST = (1, 0, 0, 0, 0, 0, 112, 0, 30, 0, 112, 0, 0, 0, 0, 0, 1)
PN_DIST = (1, 0, 0, 0, 0, 42, 70, 15, 15, 70, 42, 0, 0, 0, 0, 1)


def hamming7():
    gens = [from_string(s)[0] for s in ("1101000", "0110100", "0011010", "0001101")]
    code = span(gens, 7)
    assert code.min_distance == 3
    return code


def rm13():
    rows = ("11111111", "01010101", "00110011", "00001111")
    return span([from_string(s)[0] for s in rows], 8)


def test_distance_distribution_nr(nr):
    dd = distance_distribution(nr)
    assert tuple(dd.a) == NR_DIST
    assert dd.pair_counts == tuple(256 * a for a in NR_DIST)
    assert sum(dd.a) == 256


def test_distance_distribution_pn(pn):
    assert tuple(distance_distribution(pn).a) == PN_DIST


def test_distance_distribution_tiny():
    dd = distance_distribution(Code(2, [0b00, 0b11]))
    assert tuple(dd.a) == (1, 0, 1)


def test_distribution_vanishes_below_min_distance(nr, pn, golay):
    for code in (nr, pn, golay):
        dd = distance_distribution(code)
        assert dd.a[0] == 1
        assert all(dd.a[i] == 0 for i in range(1, code.min_distance))
        assert sum(dd.a) == code.size


def test_antipodal_symmetry_of_distributions(nr, pn, golay):
    for code in (nr, pn, golay):
        dd = distance_distribution(code)
        assert all(dd.a[i] == dd.a[code.m - i] for i in range(code.m + 1))


def test_transform_zeroth_is_size(nr):
    dd = distance_distribution(nr)
    assert macwilliams_transform(dd)[0] == 256


def test_transform_nonnegative_on_real_codes(nr, pn, golay, rm):
    for code in (nr, pn, golay, rm):
        dd = distance_distribution(code)
        assert all(x >= 0 for x in macwilliams_transform(dd))


def test_golay_transform_self_dual(golay):
    dd = distance_distribution(golay)
    transformed = macwilliams_transform(dd)
    # independent evaluation straight from the definition
    direct = [
        sum(dd.a[i] * krawtchouk(24, k, i) for i in range(25)) for k in range(25)
    ]
    assert list(transformed) == direct
    assert list(transformed) == [4096 * a for a in dd.a]


def test_distance_partition_nr(nr):
    p = distance_partition(nr)
    assert p.rho == 4
    assert p.cell_sizes == (256, 4096, 30720, 28672, 1792)
    assert sum(p.cell_sizes) == 1 << 16
    assert np.flatnonzero(p.dist_to_code == 0).tolist() == list(nr.words)


def test_distance_partition_pn(pn):
    p = distance_partition(pn)
    assert p.rho == 3
    assert p.cell_sizes == (256, 3840, 26880, 1792)


def test_distance_partition_golay(golay):
    p = distance_partition(golay)
    assert p.rho == 4
    assert p.cell_sizes == (4096, 98304, 1130496, 8290304, 7254016)


def test_distance_partition_matches_brute(nr):
    rng = random.Random(4)
    p = distance_partition(nr)
    for _ in range(200):
        v = rng.randrange(1 << 16)
        assert p.dist_to_code[v] == min((v ^ w).bit_count() for w in nr.words)


def test_completely_regular_positive(nr, pn, golay):
    for code in (nr, pn, golay):
        res = completely_regular_check(code)
        assert res.ok
        assert res.table.row_sums() == (code.size,) * (res.table.rho + 1)
        assert res.table.rho == distance_partition(code).rho


def test_nr_intersection_table_first_rows(nr):
    res = completely_regular_check(nr)
    # a vertex of the code sees the code through its distance distribution
    assert res.table.rows[0] == NR_DIST


def test_reed_muller_subcode_is_not_completely_regular(rm):
    res = completely_regular_check(rm)
    assert not res.ok
    w = res.witness
    assert w.cell == 4
    # confirm the witness definitionally
    for v, prof in ((w.vertex_a, w.profile_a), (w.vertex_b, w.profile_b)):
        assert min((v ^ c).bit_count() for c in rm.words) == 4
        direct = [0] * 17
        for c in rm.words:
            direct[(v ^ c).bit_count()] += 1
        assert tuple(direct) == prof
    assert w.profile_a != w.profile_b


def test_single_word_code_is_completely_regular():
    res = completely_regular_check(Code(3, [0]))
    assert res.ok
    assert res.table.rows == tuple(
        tuple(1 if k == i else 0 for k in range(4)) for i in range(4)
    )


def test_two_word_failure_witness():
    res = completely_regular_check(Code(3, [0b000, 0b011]))
    assert not res.ok
    assert res.witness.cell == 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: Code(3, [0, 7]),
        lambda: Code(3, [0, 3]),
        lambda: Code(4, [0, 15, 5]),
        lambda: hamming7(),
        lambda: rm13(),
        lambda: Code(8, [0] + random.Random(8).sample(range(1, 256), 7)),
        lambda: Code(10, [0] + random.Random(9).sample(range(1, 1024), 5)),
    ],
)
def test_regularity_matches_definitional_oracle(make):
    code = make()
    res = completely_regular_check(code)
    ok, extra = brute_regularity(code)
    assert res.ok == ok
    if ok:
        assert res.table.rows == extra


@st.composite
def regularity_codes(draw):
    """Random codes, translated spans, and unions of cosets of a random
    subspace (a nontrivial translation kernel), with m <= 10."""
    m = draw(st.integers(1, 10))
    word = st.integers(0, (1 << m) - 1)
    kind = draw(st.sampled_from(["random", "span", "cosets"]))
    if kind == "random":
        return Code(m, draw(st.lists(word, min_size=2, max_size=40)))
    gens = draw(st.lists(word, min_size=1, max_size=m))
    subspace = span(gens, m).words
    if kind == "span":
        beta = draw(word)
        return Code(m, [v ^ beta for v in subspace])
    reps = draw(st.lists(word, min_size=1, max_size=6))
    return Code(m, [v ^ r for r in reps for v in subspace])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(regularity_codes())
def test_quotient_route_matches_brute_force(code):
    res = completely_regular_check(code)
    ok, extra = brute_regularity(code)
    assert res.ok == ok
    if ok:
        assert res.table.rows == extra
    else:
        w = res.witness
        bad_cell = brute_profile(code, extra[0])[0]
        assert (w.cell, w.vertex_a, w.vertex_b) == (bad_cell, *extra)
        assert brute_profile(code, w.vertex_a) == (w.cell, w.profile_a)
        assert brute_profile(code, w.vertex_b) == (w.cell, w.profile_b)
    partition = distance_partition(code)
    assert (res.rho, res.cell_sizes) == (partition.rho, partition.cell_sizes)

    kernel = {
        beta for beta in range(1 << code.m)
        if all((c ^ beta) in code for c in code.words)
    }
    basis = kernel_basis(code)
    assert set(span(basis, code.m).words) == kernel
    assert list(basis) == sorted(basis)
    for b in basis:
        pivot = b.bit_length() - 1
        assert [c for c in basis if (c >> pivot) & 1] == [b]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(regularity_codes())
def test_distance_partition_matches_definition(code):
    partition = distance_partition(code)
    dist = [brute_profile(code, v)[0] for v in range(1 << code.m)]
    assert partition.dist_to_code.tolist() == dist
    assert partition.rho == max(dist)
    assert partition.cell_sizes == tuple(dist.count(i) for i in range(max(dist) + 1))
    # the pair scan that gives the transitivity check its distances, on
    # the vertices zero on every kernel pivot
    pivots = sum(1 << (b.bit_length() - 1) for b in code.kernel)
    reps = np.array([v for v in range(1 << code.m) if not v & pivots], dtype=np.uint32)
    assert _distances_to_code(code, reps).tolist() == partition.dist_to_code[reps].tolist()


def _free_coordinates(code):
    pivots = {b.bit_length() - 1 for b in code.kernel}
    return [q for q in range(code.m) if q not in pivots]


def _block_profiles(code, free, width, step):
    """Every representative's profile, from _profile_block in blocks of
    `step` high parts."""
    nheads = 1 << (len(free) - width)
    reps, rows = [], []
    for lo in range(0, nheads, step):
        r, p = _profile_block(code.words_u32(), code.m, free, width, lo,
                              min(lo + step, nheads))
        assert p.dtype == np.int64
        reps += r.tolist()
        rows += [tuple(row) for row in p.tolist()]
    return reps, rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(regularity_codes())
def test_profile_block_matches_brute_force_at_every_width(code):
    free = _free_coordinates(code)
    expected = [brute_profile(code, permute_bits(i, free))[1]
                for i in range(1 << len(free))]
    for width in range(len(free) + 1):
        for step in (1, 3, 1 << (len(free) - width)):
            reps, rows = _block_profiles(code, free, width, step)
            assert reps == [permute_bits(i, free) for i in range(1 << len(free))]
            assert rows == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_regularity_of_the_whole_space(m):
    # K = F_2^m, so there are no free coordinates and one representative;
    # the transform width is 0, so the transform runs on krawtchouk_table(0).
    code = Code(m, range(1 << m))
    assert _free_coordinates(code) == []
    assert _transform_width(code.size, m, 0) == 0
    assert _block_profiles(code, [], 0, 1) == ([0], [brute_profile(code, 0)[1]])
    res = completely_regular_check(code)
    assert res.ok and res.rho == 0 and res.cell_sizes == (1 << m,)
    assert res.table.rows == (tuple(math.comb(m, k) for k in range(m + 1)),)


def test_transform_width_keeps_int64_exact():
    # Every (m, |C|, dim K) that the work limit admits: |C| is a multiple
    # of |K| = 2^dim, at most 2^m, and 2^(m - dim) |C| <= CR_WORK_LIMIT.
    cases = 0
    for m in range(1, 25):
        for dim in range(m + 1):
            free = m - dim
            largest = min(1 << m, CR_WORK_LIMIT >> free)
            for size in range(1 << dim, largest + 1, 1 << dim):
                width = _transform_width(size, m, free)
                assert 0 <= width <= free
                assert width == 0 or (m + 1) << width <= size
                assert size << width <= CR_WORK_LIMIT == 1 << 25
                assert size << (2 * width) <= 1 << 50
                cases += 1
    assert cases > 10_000
    assert _transform_width(4096, 24, 12) == 7  # Golay
    assert _transform_width(256, 16, 11) == 3  # NR
    assert _transform_width(32, 16, 11) == 0  # RM(1,4)


@pytest.mark.parametrize(
    "make", [golay24, lambda: Code(22, [0, (1 << 21) | 5])], ids=["golay", "m22"]
)
def test_regularity_check_memory(make):
    # m22 has 2^21 representatives: all their rows would take 386 MB
    code = make()
    code.kernel
    tracemalloc.start()
    try:
        completely_regular_check(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_kernel_basis_confirms_candidates_beyond_the_probes():
    # 32 words of a subspace and the word 1, which sits at index 1 where
    # no probe looks: every nonzero subspace word passes the probes, but
    # none maps 1 into the code, so the kernel is trivial.
    subspace = span([0b0000100000, 0b0001000000, 0b0010000000,
                     0b0100000000, 0b1000000000], 10)
    code = Code(10, subspace.words + (1,))
    assert kernel_basis(code) == ()
    assert kernel_basis(Code(10, subspace.words)) == (
        0b0000100000, 0b0001000000, 0b0010000000, 0b0100000000, 0b1000000000
    )


def test_regularity_guard_raises_before_any_profile(monkeypatch):
    def no_profiles(*args):
        raise AssertionError("a profile was computed")

    monkeypatch.setattr(spectrum, "distance_profiles", no_profiles)
    code = Code(24, [0, 1, 6, 1 << 23])
    assert kernel_basis(code) == ()
    with pytest.raises(RegularityWorkExceeded) as info:
        completely_regular_check(code)
    assert info.value.estimate == 4 << 24 > CR_WORK_LIMIT
    assert isinstance(info.value, ValueError)


def test_golay_regularity_within_guard(golay):
    res = completely_regular_check(golay)
    assert res.ok and res.rho == 4
    assert res.cell_sizes == (4096, 98304, 1130496, 8290304, 7254016)


def test_distance_partition_memory(golay):
    tracemalloc.start()
    try:
        distance_partition(golay)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_design_check_nr(nr):
    res = design_check(Code(16, nr.weight_class(6)), 3)
    assert res.ok and res.lam == 4
    res = design_check(Code(16, nr.weight_class(8)), 3)
    assert res.ok and res.lam == 3


def test_design_check_pn(pn):
    res = design_check(Code(15, pn.weight_class(5)), 2)
    assert res.ok and res.lam == 4


def test_design_check_every_nr_weight_class(nr):
    # completely regular + zero word: every nonempty weight class at or
    # above the minimum distance is a 3-design
    expected = {6: 4, 8: 3, 10: 24, 16: 1}
    for k, hist in enumerate(nr.weight_histogram):
        if k >= 6 and hist:
            res = design_check(Code(16, nr.weight_class(k)), 3)
            assert res.ok and res.lam == expected[k]


def test_design_check_failure_witness():
    words = Code(5, [0b00111, 0b11100])
    res = design_check(words, 1)
    assert not res.ok
    assert res.witness == (0b00100, 2)  # coordinate 3 lies under both words


@st.composite
def design_cases(draw):
    """Weight-k words on m <= 10 coordinates and a strength t <= k: all of
    them (a design for every t), the cyclic shifts of one (always a
    1-design), or a random subset (mostly no design for t >= 1)."""
    m = draw(st.integers(1, 10))
    k = draw(st.integers(1, m))
    pool = list(weight_masks(m, k))
    kind = draw(st.sampled_from(["all", "cyclic", "subset"]))
    if kind == "all":
        words = pool
    elif kind == "cyclic":
        w = draw(st.sampled_from(pool))
        full = (1 << m) - 1
        words = [((w << s) | (w >> (m - s))) & full for s in range(m)]
    else:
        words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return Code(m, words), draw(st.integers(0, k))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(design_cases(), st.sampled_from([1, 7, spectrum.PAIR_BLOCK]))
def test_design_check_agrees_with_oracle(case, pair_block):
    # small blocks hold one or a few vertices: lambda and the witness must
    # not depend on where the blocks end
    code, t = case
    with mock.patch.object(spectrum, "PAIR_BLOCK", pair_block):
        res = design_check(code, t)
    lam, witness = brute_design(code, t)
    assert res.ok == (witness is None)
    assert (res.lam, res.witness) == (lam, witness)


def test_design_check_rejects_mixed_weights():
    with pytest.raises(ValueError):
        design_check(Code(4, [0b0001, 0b0011]), 1)


def test_design_arithmetic():
    p = design_arithmetic(3, 16, 6, 4)
    assert p.b == 112
    assert p.lambdas == (112, 42, 14, 4)
    assert all(p.integral) and p.b_integral

    p1 = design_arithmetic(3, 16, 6, 1)
    assert p1.lambdas[2] == Fraction(7, 2)
    assert p1.integral == (True, False, False, True)

    p0 = design_arithmetic(0, 9, 4, 5)
    assert p0.b == 5


def test_design_arithmetic_validation():
    with pytest.raises(ValueError):
        design_arithmetic(3, 6, 7, 1)
    with pytest.raises(ValueError):
        design_arithmetic(1, 4, 2, 0)


def test_lambda_upper_bound():
    assert lambda_upper_bound(16, 3, 6) == Fraction(13, 3)
    assert lambda_upper_bound(15, 2, 5) == Fraction(13, 3)
    assert lambda_upper_bound(12, 0, 4) == 3
    with pytest.raises(ValueError):
        lambda_upper_bound(16, 6, 6)


NR_TEMPLATE = [1, 0, 0, 0, 0, 0, 112, None, None, None, 112, 0, 0, 0, 0, 0, 1]
PN_TEMPLATE = [1, 0, 0, 0, 0, 42, None, None, None, None, 42, 0, 0, 0, 0, 1]


def test_feasibility_nr_unique():
    res = feasible_distributions(16, NR_TEMPLATE, antipodal=True)
    assert res.variables == ((7, 9), (8,))
    assert res.solutions == ({7: 0, 9: 0, 8: 30},)
    assert res.distributions == (NR_DIST,)


def test_feasibility_nr_constraint_rows():
    res = feasible_distributions(16, NR_TEMPLATE, antipodal=True)
    row2 = res.rows[2]
    assert (row2.const, row2.coeffs) == (240, (-12, -8))
    assert row2.render(res.names) == "240 - 12*a7 - 8*a8 >= 0"
    row4 = res.rows[4]
    assert (row4.const, row4.coeffs) == (-840, (28, 28))


def test_feasibility_pn_unique():
    res = feasible_distributions(15, PN_TEMPLATE, antipodal=True)
    assert res.solutions == ({6: 70, 9: 70, 7: 15, 8: 15},)
    assert res.distributions == (PN_DIST,)


def test_feasibility_fully_fixed():
    res = feasible_distributions(16, list(NR_DIST), antipodal=True)
    assert res.solutions == ({},)
    assert res.distributions == (NR_DIST,)


def test_feasibility_contradicting_template_is_empty():
    bad = list(NR_TEMPLATE)
    bad[1] = 1
    res = feasible_distributions(16, bad, antipodal=False)
    assert res.solutions == ()


def test_feasibility_validation():
    with pytest.raises(ValueError):
        feasible_distributions(4, [2, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        feasible_distributions(4, [1, 0, 0])
    with pytest.raises(ValueError):
        feasible_distributions(4, [1, 3, 0, 5, 0], antipodal=True)


def test_propagation_reports_unbounded_system():
    rows = (
        ConstraintRow(k=0, const=1, coeffs=(-1, 1)),
        ConstraintRow(k=1, const=1, coeffs=(1, -1)),
    )
    with pytest.raises(FeasibilityError):
        _propagate_bounds(rows, 2)
