"""Built-in claim manifest and machine-readable verification reports.

Every computational claim the workbench certifies appears here exactly
once, keyed by a stable claim id.  A claim either recomputes a quantity
and compares it exactly against its expected value (status pass/fail), or
records an external result this artifact does not recompute (status
external-fact, with the citation).  All integers are serialized as decimal
strings and rationals as "p/q" so reports survive any JSON reader
losslessly.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import __version__
from .codes import Code, code_predicates, named_code, span
from .hamming import permute_bits
from .spectrum import (
    CompleteRegularityResult,
    FeasibilityResult,
    completely_regular_check,
    design_arithmetic,
    design_check,
    distance_distribution,
    feasible_distributions,
    lambda_upper_bound,
    macwilliams_transform,
)
from .symmetry import (
    AutElement,
    KernelNotAffine,
    PermGroup,
    TransitivityResult,
    affine_stabilizer,
    drop_coordinate_0,
    format_aut_element,
    orbits_on_sphere,
    punctured_perm_group,
    verify_complete_transitivity,
)

NR_TEMPLATE = (1, 0, 0, 0, 0, 0, 112, None, None, None, 112, 0, 0, 0, 0, 0, 1)
PN_TEMPLATE = (1, 0, 0, 0, 0, 42, None, None, None, None, 42, 0, 0, 0, 0, 1)
NR_DISTRIBUTION = (1, 0, 0, 0, 0, 0, 112, 0, 30, 0, 112, 0, 0, 0, 0, 0, 1)
PN_DISTRIBUTION = (1, 0, 0, 0, 0, 42, 70, 15, 15, 70, 42, 0, 0, 0, 0, 1)


def fmt(value):
    """Lossless serialization: ints as decimal strings, rationals as p/q."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): fmt(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


# The distance-distribution template and length of each code's
# feasibility claims.
_FEASIBILITY = {"nr": (16, NR_TEMPLATE), "pn": (15, PN_TEMPLATE)}

# The codes whose symmetry is read off that of their even-weight
# extension: PN is NR punctured at coordinate 1, which is NR's bit 0.
_EVEN_EXTENSION = {"pn": "nr"}


def _stage(build):
    """Build a Workbench stage once per code name and keep the result."""

    @functools.wraps(build)
    def stage(self, name: str):
        key = (build.__name__, name)
        if key not in self._built:
            self._built[key] = build(self, name)
        return self._built[key]

    return stage


class Workbench:
    """Lazily built shared state for one verification run.

    Each method answers one question about the code it is given by name
    (see `named_code`) and is computed at most once per name.  NR's
    symmetry comes from its kernel RM(1,4) with no search
    (`affine_stabilizer`): its group order is at least the Sims order of
    generators checked on NR, at most the kernel's frame bound over NR's
    images under AGL(4,2).  PN's comes from NR's, its even-weight extension.
    A code's generators are its permutation stabilizer's, a basis of its
    translation kernel, and the first of NR's movers (for PN with bit 0
    dropped): one mover suffices, as cell 0 of the transitivity check, the
    code itself, shows by being one orbit.
    """

    def __init__(self, budget: int | None = None):
        self.budget = budget
        self._built: dict[tuple[str, str], object] = {}

    @_stage
    def code(self, name: str) -> Code:
        return named_code(name)

    @_stage
    def regularity(self, name: str) -> CompleteRegularityResult:
        return completely_regular_check(self.code(name))

    @_stage
    def affine(self, name: str) -> tuple[PermGroup, list[AutElement]]:
        return affine_stabilizer(self.code(name), self.budget)

    @_stage
    def perm_group(self, name: str) -> PermGroup:
        if name in _EVEN_EXTENSION:
            ext = _EVEN_EXTENSION[name]
            return punctured_perm_group(
                self.code(name), self.code(ext), self.perm_group(ext)
            )
        return self.affine(name)[0]

    @_stage
    def generators(self, name: str) -> list[AutElement]:
        code = self.code(name)
        movers = self.affine(_EVEN_EXTENSION.get(name, name))[1][:1]
        if name in _EVEN_EXTENSION:
            movers = [drop_coordinate_0(x) for x in movers]
        perms = self.perm_group(name).generators
        return (
            [AutElement.permutation(code.m, g) for g in perms]
            + [AutElement.translation(code.m, b) for b in code.kernel]
            + movers
        )

    @_stage
    def transitivity(self, name: str) -> TransitivityResult:
        return verify_complete_transitivity(self.code(name), self.generators(name))

    @_stage
    def feasibility(self, name: str) -> FeasibilityResult:
        m, template = _FEASIBILITY[name]
        return feasible_distributions(m, template, antipodal=True)


@dataclass(frozen=True)
class Claim:
    claim_id: str
    statement: str
    targets: frozenset[str]
    expected: object = None
    compute: Callable[[Workbench], object] | None = None
    citation: str | None = None
    note: str | None = None


def _cr_summary(wb: Workbench, name: str):
    res = wb.regularity(name)
    if not res.ok:
        w = res.witness
        return [
            "witness",
            str(w.cell),
            str(w.vertex_a),
            str(w.vertex_b),
        ]
    row_sums_ok = all(s == res.table.size for s in res.table.row_sums())
    return ["completely regular", "row sums |C|" if row_sums_ok else "row sums bad"]


def _design_summary(code: Code, weight: int, t: int):
    cls = Code(code.m, code.weight_class(weight))
    res = design_check(cls, t)
    if not res.ok:
        return ["not a design", str(res.witness[0]), str(res.witness[1])]
    params = design_arithmetic(t, code.m, weight, res.lam)
    return [str(res.lam), fmt(params.b)]


def _lambda_elimination(m: int, delta: int, t: int):
    """Admissible design multiplicities after divisibility and the packing
    bound: odd values fail integrality of the derived parameters."""
    bound = lambda_upper_bound(m, t, delta)
    admissible = []
    lam = 1
    while Fraction(lam) <= bound:
        params = design_arithmetic(t, m, delta, lam)
        if all(params.integral):
            admissible.append(lam)
        lam += 1
    return [fmt(bound), [str(x) for x in admissible]]


def _puncture_equivalences(wb: Workbench) -> str:
    """How many punctures NR@p, p = 2..16, are equivalent to NR@1.

    No search is needed.  Row 0 of the Sims table of NR's permutation
    group holds, for each coordinate j in the orbit of 0, an automorphism
    g of NR with g(0) = j, so g^-1 sends coordinate p-1 to 0.  Deleting
    coordinate p-1 from every word of NR, and its image 0 from every
    image word, turns g^-1 into a coordinate permutation of length 15
    that maps NR@p onto NR@1.  Each such element is checked on NR's words
    as `maps_onto` would check it on NR@p, with no punctured code built:
    NR's words permuted by g^-1, with bit 0 dropped, must be NR@1's.  A
    position with no element in the row, or whose element fails the
    check, is not counted.
    """
    nr, base = wb.code("nr").words_u32(), wb.code("pn").words_u32()
    row = wb.perm_group("nr").row(0)
    found = 0
    for p in range(2, 17):
        g = row.get(p - 1)
        if g is None:
            continue
        sigma = AutElement.permutation(16, g).inverse().sigma
        if np.array_equal(np.sort(permute_bits(nr, sigma) >> 1), base):
            found += 1
    return f"equivalent for {found}/15 puncture positions"


def _kernel_summary(wb: Workbench) -> list:
    kernel = span(wb.code("nr").kernel, 16)
    return [str(kernel.size), kernel == wb.code("reed_muller")]


def _kernel_strict(wb: Workbench) -> bool:
    """NR + b != NR, as sorted arrays, for each word b of NR outside the subcode."""
    arr = wb.code("nr").words_u32()
    outside = arr[~wb.code("reed_muller").isin(arr)]
    return not (np.sort(outside[:, None] ^ arr, axis=1) == arr).all(axis=1).any()


def _mu_image_order(wb: Workbench) -> str:
    """The order of the group of the generators' coordinate permutations:
    NR's permutation group, its Sims table extended by them."""
    sigmas = [g.sigma for g in wb.generators("nr")]
    return str(wb.perm_group("nr").extended(sigmas).order())


def build_manifest() -> tuple[Claim, ...]:
    nr_t = frozenset({"nr"})
    pn_t = frozenset({"pn"})
    claims = [
        Claim(
            "golay.size", "extended Golay code has 4096 words", nr_t,
            expected="4096", compute=lambda wb: str(wb.code("golay24").size),
        ),
        Claim(
            "golay.delta", "extended Golay code has minimum distance 8", nr_t,
            expected="8", compute=lambda wb: str(wb.code("golay24").min_distance),
        ),
        Claim(
            "golay.contains_gamma",
            "the weight-8 word on coordinates 1..8 is a Golay codeword", nr_t,
            expected=True, compute=lambda wb: ((1 << 8) - 1) in wb.code("golay24"),
        ),
        Claim(
            "golay.weights",
            "Golay weight enumerator counts at weights 8, 12, 16", nr_t,
            expected=["759", "2576", "759"],
            compute=lambda wb: fmt([
                wb.code("golay24").weight_histogram[8],
                wb.code("golay24").weight_histogram[12],
                wb.code("golay24").weight_histogram[16],
            ]),
        ),
        Claim(
            "golay.cr", "Golay code is completely regular", nr_t,
            expected=["completely regular", "row sums |C|"],
            compute=lambda wb: _cr_summary(wb, "golay24"),
        ),
        Claim(
            "golay.selfdual.transform",
            "Golay transform equals 4096 times its distance distribution", nr_t,
            expected=True,
            compute=lambda wb: (
                lambda dd: macwilliams_transform(dd)
                == tuple(4096 * a for a in dd.a)
            )(distance_distribution(wb.code("golay24"))),
        ),
        Claim(
            "nr.params", "construction yields a (16, 256, 6) code", nr_t,
            expected=["16", "256", "6"],
            compute=lambda wb: (
                lambda c: fmt([c.m, c.size, c.min_distance])
            )(wb.code("nr")),
        ),
        Claim(
            "nr.even", "every codeword has even weight", nr_t,
            expected=True,
            compute=lambda wb: code_predicates(wb.code("nr")).is_even,
        ),
        Claim(
            "nr.antipodal", "the code is closed under complement", nr_t,
            expected=True,
            compute=lambda wb: code_predicates(wb.code("nr")).is_antipodal,
        ),
        Claim(
            "nr.dist", "distance distribution of the (16, 256, 6) code", nr_t,
            expected=fmt(list(NR_DISTRIBUTION)),
            compute=lambda wb: fmt(
                [a for a in distance_distribution(wb.code("nr")).a]
            ),
        ),
        Claim(
            "nr.rho", "covering radius 4", nr_t,
            expected="4", compute=lambda wb: str(wb.regularity("nr").rho),
        ),
        Claim(
            "nr.cells", "distance-partition cell sizes", nr_t,
            expected=["256", "4096", "30720", "28672", "1792"],
            compute=lambda wb: fmt(list(wb.regularity("nr").cell_sizes)),
        ),
        Claim(
            "nr.cr", "the code is completely regular", nr_t,
            expected=["completely regular", "row sums |C|"],
            compute=lambda wb: _cr_summary(wb, "nr"),
        ),
        Claim(
            "nr.design.w6", "weight-6 words form a 3-design with 112 blocks", nr_t,
            expected=["4", "112"],
            compute=lambda wb: _design_summary(wb.code("nr"), 6, 3),
        ),
        Claim(
            "nr.design.w8", "weight-8 words form a 3-design", nr_t,
            expected=["3", "30"],
            compute=lambda wb: _design_summary(wb.code("nr"), 8, 3),
        ),
        Claim(
            "nr.design.w10", "weight-10 words form a 3-design", nr_t,
            expected=["24", "112"],
            compute=lambda wb: _design_summary(wb.code("nr"), 10, 3),
        ),
        Claim(
            "nr.kernel", "translation kernel equals the [16,5,8] subcode", nr_t,
            expected=["32", True],
            compute=_kernel_summary,
        ),
        Claim(
            "nr.kernel.strict",
            "no word outside the kernel translates the code onto itself", nr_t,
            expected=True, compute=_kernel_strict,
        ),
        Claim(
            "nr.perm.order", "permutation stabilizer has order 40320", nr_t,
            expected="40320", compute=lambda wb: str(wb.perm_group("nr").order()),
        ),
        Claim(
            "nr.mu.order",
            "coordinate action of the full stabilizer has order 322560", nr_t,
            expected="322560", compute=_mu_image_order,
        ),
        Claim(
            "nr.orbits.sphere4",
            "permutation stabilizer has 2 orbits on weight-4 vertices", nr_t,
            expected="2",
            compute=lambda wb: str(
                orbits_on_sphere(wb.perm_group("nr"), 4).orbit_count
            ),
        ),
        Claim(
            "nr.orbits.low",
            "permutation stabilizer is transitive on weights 1, 2, 3", nr_t,
            expected=["1", "1", "1"],
            compute=lambda wb: [
                str(orbits_on_sphere(wb.perm_group("nr"), k).orbit_count)
                for k in (1, 2, 3)
            ],
        ),
        Claim(
            "nr.ct", "orbits of the stabilizer equal the distance partition", nr_t,
            expected=[True, "5"],
            compute=lambda wb: [
                wb.transitivity("nr").ok, str(len(wb.transitivity("nr").cells))
            ],
        ),
        Claim(
            "rm.params", "kernel subcode is a linear [16,5,8] subset", nr_t,
            expected=["32", "8", True, True],
            compute=lambda wb: [
                str(wb.code("reed_muller").size),
                str(wb.code("reed_muller").min_distance),
                code_predicates(wb.code("reed_muller")).is_linear,
                bool(wb.code("nr").isin(wb.code("reed_muller").words_u32()).all()),
            ],
        ),
        Claim(
            "rm.cr", "the [16,5,8] subcode is completely regular", nr_t,
            expected=["completely regular", "row sums |C|"],
            compute=lambda wb: _cr_summary(wb, "reed_muller"),
            note=(
                "expected to fail: two vertices at distance 4 from the "
                "subcode have different codeword-distance profiles, so the "
                "subcode is not completely regular; the computed value "
                "carries one witness pair"
            ),
        ),
        Claim(
            "feas.nr.unique",
            "transform nonnegativity forces the unknown entries to (0, 30)", nr_t,
            expected=[["0", "30"]],
            compute=lambda wb: [
                [str(s[7]), str(s[8])] for s in wb.feasibility("nr").solutions
            ],
        ),
        Claim(
            "feas.nr.row_k2", "derived constraint row at k = 2", nr_t,
            expected="240 - 12*a7 - 8*a8 >= 0",
            compute=lambda wb: wb.feasibility("nr").rows[2].render(
                wb.feasibility("nr").names
            ),
        ),
        Claim(
            "feas.nr.row_k4", "derived constraint row at k = 4", nr_t,
            expected="-840 + 28*a7 + 28*a8 >= 0",
            compute=lambda wb: wb.feasibility("nr").rows[4].render(
                wb.feasibility("nr").names
            ),
            note=(
                "the a7 coefficient of this derived row is +28; a commonly "
                "printed form of the same system carries -28 there; both "
                "systems have the identical unique solution (0, 30)"
            ),
        ),
        Claim(
            "feas.nr.lambda",
            "design multiplicity: odd values inadmissible, bound 13/3", nr_t,
            expected=["13/3", ["2", "4"]],
            compute=lambda wb: _lambda_elimination(16, 6, 3),
        ),
        Claim(
            "pn.params", "puncturing yields a (15, 256, 5) code", pn_t,
            expected=["15", "256", "5"],
            compute=lambda wb: (
                lambda c: fmt([c.m, c.size, c.min_distance])
            )(wb.code("pn")),
        ),
        Claim(
            "pn.weight5.count", "42 words of weight 5", pn_t,
            expected="42",
            compute=lambda wb: str(wb.code("pn").weight_histogram[5]),
        ),
        Claim(
            "pn.dist", "distance distribution of the (15, 256, 5) code", pn_t,
            expected=fmt(list(PN_DISTRIBUTION)),
            compute=lambda wb: fmt(
                [a for a in distance_distribution(wb.code("pn")).a]
            ),
        ),
        Claim(
            "pn.antipodal", "the punctured code is closed under complement", pn_t,
            expected=True,
            compute=lambda wb: code_predicates(wb.code("pn")).is_antipodal,
        ),
        Claim(
            "pn.rho", "covering radius 3", pn_t,
            expected="3", compute=lambda wb: str(wb.regularity("pn").rho),
        ),
        Claim(
            "pn.cells", "distance-partition cell sizes", pn_t,
            expected=["256", "3840", "26880", "1792"],
            compute=lambda wb: fmt(list(wb.regularity("pn").cell_sizes)),
        ),
        Claim(
            "pn.cr", "the punctured code is completely regular", pn_t,
            expected=["completely regular", "row sums |C|"],
            compute=lambda wb: _cr_summary(wb, "pn"),
        ),
        Claim(
            "pn.design.w5", "weight-5 words form a 2-design with 42 blocks", pn_t,
            expected=["4", "42"],
            compute=lambda wb: _design_summary(wb.code("pn"), 5, 2),
        ),
        Claim(
            "pn.kernel.size", "translation kernel has 32 words", pn_t,
            expected="32",
            compute=lambda wb: str(1 << len(wb.code("pn").kernel)),
        ),
        Claim(
            "pn.perm.order", "permutation stabilizer has order 2520", pn_t,
            expected="2520", compute=lambda wb: str(wb.perm_group("pn").order()),
        ),
        Claim(
            "pn.orbits.sphere3",
            "permutation stabilizer has 2 orbits on weight-3 vertices", pn_t,
            expected="2",
            compute=lambda wb: str(
                orbits_on_sphere(wb.perm_group("pn"), 3).orbit_count
            ),
        ),
        Claim(
            "pn.ct", "orbits of the stabilizer equal the distance partition", pn_t,
            expected=[True, "4"],
            compute=lambda wb: [
                wb.transitivity("pn").ok, str(len(wb.transitivity("pn").cells))
            ],
        ),
        Claim(
            "pn.puncture.equiv",
            "all 16 puncture positions give equivalent codes", pn_t,
            expected="equivalent for 15/15 puncture positions",
            compute=_puncture_equivalences,
        ),
        Claim(
            "feas.pn.unique",
            "transform nonnegativity forces the unknown entries to (70, 15)", pn_t,
            expected=[["70", "15"]],
            compute=lambda wb: [
                [str(s[6]), str(s[7])] for s in wb.feasibility("pn").solutions
            ],
        ),
        Claim(
            "feas.pn.lambda",
            "design multiplicity: odd values inadmissible, bound 13/3", pn_t,
            expected=["13/3", ["2", "4"]],
            compute=lambda wb: _lambda_elimination(15, 5, 2),
        ),
        Claim(
            "external.snover.nr",
            "every binary (16, 256, 6) code is equivalent to this one", nr_t,
            citation="Snover (1973), uniqueness of the (16, 256, 6) code; "
            "not recomputed",
        ),
        Claim(
            "external.snover.pn",
            "every binary (15, 256, 5) code is equivalent to this one", pn_t,
            citation="Snover (1973), uniqueness of the (15, 256, 5) code; "
            "not recomputed",
        ),
        Claim(
            "external.design.lambda2.nr",
            "no 3-(16, 6, 2) design exists, so the multiplicity is 4", nr_t,
            citation="Handbook of Combinatorial Designs, 3-design tables; "
            "not recomputed",
        ),
        Claim(
            "external.design.lambda2.pn",
            "no 2-(15, 5, 2) design exists, so the multiplicity is 4", pn_t,
            citation="Handbook of Combinatorial Designs, 2-design tables; "
            "not recomputed",
        ),
    ]
    ids = [c.claim_id for c in claims]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate claim id in the manifest")
    return tuple(claims)


TARGETS = ("nr", "pn", "all")


@dataclass
class ReportEntry:
    claim_id: str
    statement: str
    expected: object
    computed: object
    status: str
    wall_time: str
    citation: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        out = {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "wall_time": self.wall_time,
        }
        if self.citation is not None:
            out["citation"] = self.citation
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    version: str
    target: str
    entries: list[ReportEntry] = field(default_factory=list)

    def failing_ids(self) -> list[str]:
        return [e.claim_id for e in self.entries if e.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "target": self.target,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def run_verification(
    target: str = "all",
    workbench: Workbench | None = None,
) -> VerificationReport:
    """Evaluate every claim for the target and collect exact comparisons.

    Orbit walks run under the budget of `workbench` (default: a new
    `Workbench()`); symmetry claims on a kernel not RM(1,4): "not computed".
    """
    if target not in TARGETS:
        raise ValueError(f"unknown verification target {target!r}")
    wb = workbench if workbench is not None else Workbench()
    report = VerificationReport(version=__version__, target=target)
    for claim in build_manifest():
        if target != "all" and target not in claim.targets:
            continue
        start = time.perf_counter()
        if claim.compute is None:
            computed, status = None, "external-fact"
        else:
            try:
                computed = claim.compute(wb)
            except KernelNotAffine as exc:
                computed = ["not computed", str(exc)]
            status = "pass" if computed == claim.expected else "fail"
        report.entries.append(
            ReportEntry(
                claim_id=claim.claim_id,
                statement=claim.statement,
                expected=claim.expected,
                computed=computed,
                status=status,
                wall_time=f"{time.perf_counter() - start:.6f}",
                citation=claim.citation,
                note=claim.note,
            )
        )
    return report


def transitivity_certificate(wb: Workbench, which: str) -> dict:
    """Orbit-versus-cell certificate with the generators in text form."""
    res, gens = wb.transitivity(which), wb.generators(which)
    return {
        "matched_cells": [
            {
                "cell": str(c.cell),
                "cell_size": str(c.cell_size),
                "orbit_size": str(c.orbit_size),
            }
            for c in res.cells
        ],
        "generators": [format_aut_element(g) for g in gens],
    }
