"""Acceptance suite: every top-level claim, exact comparisons, one line each.

All comparisons are exact integer or rational equalities.  Criterion 5
certifies NR, PN and the Golay code as completely regular, and refutes the
complete regularity of the first-order Reed-Muller subcode R(1,4): the
checker's witness pair is rechecked from the definition, by a plain loop
over the subcode's words.
"""

import random
import time
from fractions import Fraction

import pytest

from nrcodes.codes import Code, code_predicates, puncture, span
from nrcodes.hamming import from_string
from nrcodes.report import build_manifest
from nrcodes.spectrum import (
    completely_regular_check,
    design_arithmetic,
    design_check,
    distance_distribution,
    distance_partition,
    feasible_distributions,
    lambda_upper_bound,
)
from nrcodes.symmetry import (
    AutElement,
    PermGroup,
    affine_stabilizer,
    orbits_on_sphere,
    verify_complete_transitivity,
)
from oracles import (
    brute_perm_automorphisms,
    brute_profile,
    brute_regularity,
    mulclose_order,
    plain_perm_generators,
    translate,
)

NR_DIST = (1, 0, 0, 0, 0, 0, 112, 0, 30, 0, 112, 0, 0, 0, 0, 0, 1)
PN_DIST = (1, 0, 0, 0, 0, 42, 70, 15, 15, 70, 42, 0, 0, 0, 0, 1)
# The two codeword-distance profiles (distances 0..16) of the vertices at
# distance 4 from R(1,4); every other cell has a single profile.
RM_CELL4_PROFILES = {
    (0, 0, 0, 0, 2, 0, 8, 0, 12, 0, 8, 0, 2, 0, 0, 0, 0),
    (0, 0, 0, 0, 4, 0, 0, 0, 24, 0, 0, 0, 4, 0, 0, 0, 0),
}


def report(number: int, label: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {label}: {verdict} ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_golay_construction(golay):
    t0 = time.perf_counter()
    hist = golay.weight_histogram
    ok = (
        golay.size == 4096
        and golay.min_distance == 8
        and (1 << 8) - 1 in golay
        and (hist[8], hist[12], hist[16]) == (759, 2576, 759)
    )
    report(1, "Golay construction", ok, t0)
    assert ok


def test_criterion_02_nr_construction(nr):
    t0 = time.perf_counter()
    ok = (
        (nr.m, nr.size, nr.min_distance) == (16, 256, 6)
        and all(w.bit_count() % 2 == 0 for w in nr.words)
        and nr.weight_histogram[6] == 112
        and nr.weight_histogram[8] == 30
        and nr.weight_histogram[10] == 112
        and distance_distribution(nr) == NR_DIST
    )
    report(2, "Nordstrom-Robinson construction", ok, t0)
    assert ok


def test_criterion_03_pn_construction(pn):
    t0 = time.perf_counter()
    ok = (
        (pn.m, pn.size, pn.min_distance) == (15, 256, 5)
        and pn.weight_histogram[5] == 42
        and distance_distribution(pn) == PN_DIST
    )
    report(3, "punctured code construction", ok, t0)
    assert ok


def test_criterion_04_covering_radii(nr, pn):
    t0 = time.perf_counter()
    ok = distance_partition(nr).rho == 4 and distance_partition(pn).rho == 3
    report(4, "covering radii", ok, t0)
    assert ok


def test_criterion_05_complete_regularity(nr, pn, golay, rm):
    t0 = time.perf_counter()
    results = {}
    for name, code in (("nr", nr), ("pn", pn), ("golay", golay), ("rm", rm)):
        res = completely_regular_check(code)
        results[name] = res
        if res.ok:
            assert tuple(map(sum, res.rows)) == (code.size,) * (res.partition.rho + 1)
    w = results["rm"].witness
    refuted = False
    if not results["rm"].ok and w is not None:
        (cell_a, profile_a), (cell_b, profile_b) = (
            brute_profile(rm, v) for v in (w.vertex_a, w.vertex_b)
        )
        refuted = (
            cell_a == cell_b == w.cell
            and (profile_a, profile_b) == (w.profile_a, w.profile_b)
            and profile_a != profile_b
            and {profile_a, profile_b} == RM_CELL4_PROFILES
        )
    ok = results["nr"].ok and results["pn"].ok and results["golay"].ok and refuted
    report(5, "NR, PN, Golay completely regular; R(1,4) refuted", ok, t0)
    assert results["nr"].ok
    assert results["pn"].ok
    assert results["golay"].ok
    assert refuted, (
        "the [16,5,8] subcode must be refuted by a witness pair in one cell "
        f"with their own, differing profiles; the checker gave {results['rm']}"
    )


def test_criterion_06_designs(nr, pn):
    t0 = time.perf_counter()
    res6 = design_check(Code(16, nr.weight_class(6)), 3)
    res5 = design_check(Code(15, pn.weight_class(5)), 2)
    res8 = design_check(Code(16, nr.weight_class(8)), 3)
    b = design_arithmetic(3, 16, 6, 4)[0]
    ok = (
        res6.ok and res6.lam == 4
        and b == 112 == nr.weight_histogram[6]
        and res5.ok and res5.lam == 4
        and res8.ok and res8.lam == 3
    )
    report(6, "weight-class designs", ok, t0)
    assert ok


def test_criterion_07_lambda_elimination():
    t0 = time.perf_counter()
    checks = []
    for m, delta, t in ((16, 6, 3), (15, 5, 2)):
        bound = lambda_upper_bound(m, t, delta)
        admissible = [
            lam
            for lam in range(1, 5)
            if lam <= bound
            and all(x.denominator == 1 for x in design_arithmetic(t, m, delta, lam))
        ]
        checks.append(bound == Fraction(13, 3))
        checks.append(admissible == [2, 4])
    # the lambda=2 cases are carried as external facts, never recomputed
    manifest = {c.claim_id: c for c in build_manifest()}
    for cid in ("external.design.lambda2.nr", "external.design.lambda2.pn"):
        claim = manifest[cid]
        checks.append(claim.compute is None and bool(claim.citation))
    ok = all(checks)
    report(7, "design multiplicity elimination", ok, t0)
    assert ok


def test_criterion_08_feasibility_uniqueness():
    t0 = time.perf_counter()
    nr_res = feasible_distributions(
        16, (1, 0, 0, 0, 0, 0, 112, None, None, None, 112, 0, 0, 0, 0, 0, 1),
        antipodal=True,
    )
    pn_res = feasible_distributions(
        15, (1, 0, 0, 0, 0, 42, None, None, None, None, 42, 0, 0, 0, 0, 1),
        antipodal=True,
    )
    row2 = nr_res.rows[2]
    ok = (
        nr_res.distributions == (NR_DIST,)
        and pn_res.distributions == (PN_DIST,)
        and (row2.const, row2.coeffs) == (240, (-12, -8))
        and row2.render(nr_res.names) == "240 - 12*a7 - 8*a8 >= 0"
    )
    report(8, "feasibility uniqueness", ok, t0)
    assert ok


def test_criterion_09_translation_kernel(nr, rm):
    t0 = time.perf_counter()
    kernel = span(nr.kernel, 16)
    ok = (
        kernel == rm
        and kernel.size == 32
        and all(translate(nr, b) != nr for b in nr.words if b not in rm)
    )
    report(9, "translation kernel", ok, t0)
    assert ok


def test_criterion_10_group_orders(nr_perm_group, pn_perm_group, nr_generators):
    t0 = time.perf_counter()
    mu_image = PermGroup(16, sorted(set(g.sigma for g in nr_generators)))
    ok = (
        nr_perm_group.order() == 40320
        and pn_perm_group.order() == 2520
        and mu_image.order() == 322560
    )
    report(10, "group orders", ok, t0)
    assert nr_perm_group.order() == 40320  # 2^4 * |A_7|
    assert pn_perm_group.order() == 2520  # |A_7|
    assert mu_image.order() == 322560  # 2^4 * |A_8|


def test_criterion_11_sphere_orbits(nr_perm_group, pn_perm_group):
    t0 = time.perf_counter()
    ok = (
        len(orbits_on_sphere(nr_perm_group, 4)) == 2
        and len(orbits_on_sphere(pn_perm_group, 3)) == 2
        and all(
            len(orbits_on_sphere(nr_perm_group, k)) == 1
            for k in (1, 2, 3)
        )
    )
    report(11, "sphere orbit counts", ok, t0)
    assert ok


def test_criterion_12_complete_transitivity(nr, pn, nr_generators, pn_generators):
    t0 = time.perf_counter()
    res_nr, res_pn = (
        verify_complete_transitivity(code, gens, completely_regular_check(code).partition)
        for code, gens in ((nr, nr_generators), (pn, pn_generators))
    )
    sizes = [c.cell_size for c in res_nr.cells]
    ok = (
        res_nr.ok
        and sizes[:3] == [256, 4096, 30720]
        and sizes[3] + sizes[4] == 30464
        and res_pn.ok
        and len(res_pn.cells) == 4
    )
    report(12, "complete transitivity", ok, t0)
    assert ok


def test_criterion_13_puncture_equivalence(nr, nr_perm_group):
    # Row 0 of NR's Sims table sends 0 to p-1; its inverse sends p-1 to 0,
    # and with coordinate p-1 of NR and its image 0 dropped it maps NR@p
    # onto NR@1.  The images are computed from the definition, bit by bit.
    t0 = time.perf_counter()
    base = set(puncture(nr, 1).words)
    row = nr_perm_group.row(0)
    found = 0
    for p in range(2, 17):
        inverse = [0] * 16
        for i, j in enumerate(row[p - 1]):
            inverse[j] = i
        sigma = [s - 1 for j, s in enumerate(inverse) if j != p - 1]
        images = {
            sum(((w >> j) & 1) << s for j, s in enumerate(sigma))
            for w in puncture(nr, p).words
        }
        if sorted(sigma) == list(range(15)) and images == base:
            found += 1
    ok = found == 15
    report(13, "puncture equivalences", ok, t0)
    assert ok


def test_criterion_14_oracle_suites():
    t0 = time.perf_counter()
    rng = random.Random(99)

    # the oracle's plain backtrack, and on RM(1,3) the affine route, versus
    # all-permutations enumeration, m <= 8
    small = [
        Code(3, [0, 7]),
        Code(4, [0b0110, 0b1001, 0b0000, 0b1111]),
        Code(5, [0b00111, 0b11100, 0b11011]),
        Code(6, [0] + rng.sample(range(1, 64), 4)),
        Code(7, [0] + rng.sample(range(1, 128), 4)),
        span([from_string(s)[0] for s in ("11111111", "01010101", "00110011", "00001111")], 8),
    ]
    for code in small:
        gens = plain_perm_generators(code)
        brute = brute_perm_automorphisms(code)
        assert PermGroup(code.m, gens).order() == len(brute)
        assert mulclose_order(gens, code.m) == len(brute)
    group, _ = affine_stabilizer(small[-1])
    assert group.order() == len(brute) == 1344
    assert mulclose_order(group.generators, 8) == 1344

    # regularity checker versus the definitional double loop, m <= 10
    for code in [
        Code(3, [0, 3]),
        Code(8, [0] + rng.sample(range(1, 256), 6)),
        Code(10, [0] + rng.sample(range(1, 1024), 5)),
        small[-1],
    ]:
        ours = completely_regular_check(code)
        ok, extra = brute_regularity(code)
        assert ours.ok == ok
        if ok:
            assert ours.rows == extra

    # randomized group laws
    m = 16
    for _ in range(1000):
        sig1 = list(range(m)); rng.shuffle(sig1)
        sig2 = list(range(m)); rng.shuffle(sig2)
        x = AutElement(m, rng.randrange(1 << m), tuple(sig1))
        y = AutElement(m, rng.randrange(1 << m), tuple(sig2))
        v = rng.randrange(1 << m)
        assert (x * y).act(v) == y.act(x.act(v))
        assert x * x.inverse() == AutElement.translation(m, 0)

    report(14, "oracle suites", True, t0)


def test_mutation_detects_corruption(nr, nr_generators):
    t0 = time.perf_counter()
    words = list(nr.words)
    words[17] ^= 1
    corrupted = Code(16, words)

    # criterion 2 comparisons break
    crit2 = (
        corrupted.min_distance == 6
        and all(w.bit_count() % 2 == 0 for w in corrupted.words)
        and distance_distribution(corrupted) == NR_DIST
    )
    assert not crit2

    # criterion 5 breaks: the corrupted code is no longer completely regular
    assert not completely_regular_check(corrupted).ok

    # criterion 12 breaks: the corrupted code's kernel is no longer RM(1,4),
    # so the affine route refuses it, and NR's generators do not stabilize it
    with pytest.raises(ValueError, match="not RM"):
        affine_stabilizer(corrupted)
    with pytest.raises(ValueError, match="does not stabilize"):
        verify_complete_transitivity(
            corrupted, nr_generators, distance_partition(corrupted)
        )
    report(0, "mutation detection (criteria 2, 5, 12)", True, t0)
