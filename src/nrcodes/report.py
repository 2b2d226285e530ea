"""Built-in claim manifest and machine-readable verification reports.

Every computational claim the workbench certifies is one row of the
manifest table, `build_manifest`: its stable id, targets, statement,
expected value, compute, and an optional citation or note.  A claim
either recomputes a quantity and compares it exactly against its expected
value (status pass/fail), or records an external result this artifact
does not recompute (status external-fact, with the citation).  Row order
is the report's order, which the tests pin by digest; a new claim is one
row plus at most one new helper.  All integers are serialized as decimal
strings and rationals as "p/q" so reports survive any JSON reader
losslessly.
"""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction
from typing import Callable, NamedTuple

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

    def __init__(self):
        self._built: dict[tuple[str, str], object] = {}

    @_stage
    def code(self, name: str) -> Code:
        return named_code(name)

    @_stage
    def regularity(self, name: str) -> CompleteRegularityResult:
        return completely_regular_check(self.code(name))

    @_stage
    def affine(self, name: str) -> tuple[PermGroup, list[AutElement]]:
        return affine_stabilizer(self.code(name))

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
        return verify_complete_transitivity(
            self.code(name), self.generators(name), self.regularity(name).partition
        )

    @_stage
    def feasibility(self, name: str) -> FeasibilityResult:
        m, template = _FEASIBILITY[name]
        return feasible_distributions(m, template, antipodal=True)


class Claim(NamedTuple):
    """One row of the manifest; a row with no compute is an external fact."""

    claim_id: str
    targets: frozenset[str]
    statement: str
    expected: object = None
    compute: Callable[[Workbench], object] | None = None
    citation: str | None = None
    note: str | None = None


# Claim computes, each a function of the workbench.  First the shapes that
# several rows share, each taking the name of the code it reads; then those
# of single rows.


def _params(wb: Workbench, name: str) -> list:
    """Length, size and minimum distance."""
    code = wb.code(name)
    return fmt([code.m, code.size, code.min_distance])


def _weight_count(wb: Workbench, name: str, weight: int) -> str:
    return str(wb.code(name).weight_histogram[weight])


def _distribution(wb: Workbench, name: str) -> list:
    return fmt(list(distance_distribution(wb.code(name))))


def _antipodal(wb: Workbench, name: str) -> bool:
    return code_predicates(wb.code(name)).is_antipodal


def _rho(wb: Workbench, name: str) -> str:
    return str(wb.regularity(name).partition.rho)


def _cell_sizes(wb: Workbench, name: str) -> list:
    return fmt(list(wb.regularity(name).partition.cell_sizes))


def _cr_summary(wb: Workbench, name: str) -> list:
    res = wb.regularity(name)
    if not res.ok:
        w = res.witness
        return ["witness", str(w.cell), str(w.vertex_a), str(w.vertex_b)]
    row_sums_ok = all(sum(row) == wb.code(name).size for row in res.rows)
    return ["completely regular", "row sums |C|" if row_sums_ok else "row sums bad"]


def _design_summary(wb: Workbench, name: str, weight: int, t: int) -> list:
    code = wb.code(name)
    res = design_check(Code(code.m, code.weight_class(weight)), t)
    if not res.ok:
        return ["not a design", str(res.witness[0]), str(res.witness[1])]
    return [str(res.lam), fmt(design_arithmetic(t, code.m, weight, res.lam)[0])]


def _perm_order(wb: Workbench, name: str) -> str:
    return str(wb.perm_group(name).order())


def _sphere_orbits(wb: Workbench, name: str, weight: int) -> str:
    return str(len(orbits_on_sphere(wb.perm_group(name), weight)))


def _ct_summary(wb: Workbench, name: str) -> list:
    """Whether the orbits are the distance-partition cells, and how many."""
    res = wb.transitivity(name)
    return [res.ok, str(len(res.cells))]


def _solutions(wb: Workbench, name: str, *unknowns: int) -> list:
    """The given entries of each feasible distance distribution."""
    return [[str(d[i]) for i in unknowns] for d in wb.feasibility(name).distributions]


def _constraint_row(wb: Workbench, name: str, k: int) -> str:
    res = wb.feasibility(name)
    return res.rows[k].render(res.names)


def _lambda_elimination(m: int, delta: int, t: int) -> list:
    """Admissible design multiplicities after divisibility and the packing
    bound: odd values fail integrality of the derived parameters."""
    bound = lambda_upper_bound(m, t, delta)
    admissible = [
        lam for lam in range(1, int(bound) + 1)
        if all(x.denominator == 1 for x in design_arithmetic(t, m, delta, lam))
    ]
    return [fmt(bound), fmt(admissible)]


def _golay_self_dual(wb: Workbench) -> bool:
    golay = wb.code("golay24")
    return macwilliams_transform(golay) == golay.distance_counts  # |C| a_k


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
    NR's permutation group's generators, then the rest, in one Sims table."""
    sigmas = [g.sigma for g in wb.generators("nr")]
    return str(PermGroup(16, [*wb.perm_group("nr").generators, *sigmas]).order())


def _subcode_params(wb: Workbench) -> list:
    """Size, minimum distance and linearity of the kernel subcode, and
    whether all its words lie in NR."""
    rm = wb.code("reed_muller")
    inside = bool(wb.code("nr").isin(rm.words_u32()).all())
    return [str(rm.size), str(rm.min_distance), code_predicates(rm).is_linear, inside]


def build_manifest() -> tuple[Claim, ...]:
    """Every claim, one `Claim` row each, in the report's order.

    A row holds the claim id, the targets it belongs to, the statement,
    the expected value, the compute (a function of the `Workbench`), and
    an optional citation or note; a row with no compute is an external
    fact and carries its citation.  Row order is the report's order, which
    the tests pin.  A compute shape that more than one row uses is one
    helper above, so a new claim is one row plus at most one new helper.
    """
    nr, pn = frozenset({"nr"}), frozenset({"pn"})
    regular = ["completely regular", "row sums |C|"]
    claims = (
        Claim("golay.size", nr, "extended Golay code has 4096 words",
              "4096", lambda wb: str(wb.code("golay24").size)),
        Claim("golay.delta", nr, "extended Golay code has minimum distance 8",
              "8", lambda wb: str(wb.code("golay24").min_distance)),
        Claim("golay.contains_gamma", nr,
              "the weight-8 word on coordinates 1..8 is a Golay codeword",
              True, lambda wb: ((1 << 8) - 1) in wb.code("golay24")),
        Claim("golay.weights", nr, "Golay weight enumerator counts at weights 8, 12, 16",
              ["759", "2576", "759"],
              lambda wb: [_weight_count(wb, "golay24", w) for w in (8, 12, 16)]),
        Claim("golay.cr", nr, "Golay code is completely regular",
              regular, lambda wb: _cr_summary(wb, "golay24")),
        Claim("golay.selfdual.transform", nr,
              "Golay transform equals 4096 times its distance distribution",
              True, _golay_self_dual),
        Claim("nr.params", nr, "construction yields a (16, 256, 6) code",
              ["16", "256", "6"], lambda wb: _params(wb, "nr")),
        Claim("nr.even", nr, "every codeword has even weight",
              True, lambda wb: code_predicates(wb.code("nr")).is_even),
        Claim("nr.antipodal", nr, "the code is closed under complement",
              True, lambda wb: _antipodal(wb, "nr")),
        Claim("nr.dist", nr, "distance distribution of the (16, 256, 6) code",
              fmt(list(NR_DISTRIBUTION)), lambda wb: _distribution(wb, "nr")),
        Claim("nr.rho", nr, "covering radius 4", "4", lambda wb: _rho(wb, "nr")),
        Claim("nr.cells", nr, "distance-partition cell sizes",
              ["256", "4096", "30720", "28672", "1792"],
              lambda wb: _cell_sizes(wb, "nr")),
        Claim("nr.cr", nr, "the code is completely regular",
              regular, lambda wb: _cr_summary(wb, "nr")),
        Claim("nr.design.w6", nr, "weight-6 words form a 3-design with 112 blocks",
              ["4", "112"], lambda wb: _design_summary(wb, "nr", 6, 3)),
        Claim("nr.design.w8", nr, "weight-8 words form a 3-design",
              ["3", "30"], lambda wb: _design_summary(wb, "nr", 8, 3)),
        Claim("nr.design.w10", nr, "weight-10 words form a 3-design",
              ["24", "112"], lambda wb: _design_summary(wb, "nr", 10, 3)),
        Claim("nr.kernel", nr, "translation kernel equals the [16,5,8] subcode",
              ["32", True], _kernel_summary),
        Claim("nr.kernel.strict", nr,
              "no word outside the kernel translates the code onto itself",
              True, _kernel_strict),
        Claim("nr.perm.order", nr, "permutation stabilizer has order 40320",
              "40320", lambda wb: _perm_order(wb, "nr")),
        Claim("nr.mu.order", nr,
              "coordinate action of the full stabilizer has order 322560",
              "322560", _mu_image_order),
        Claim("nr.orbits.sphere4", nr,
              "permutation stabilizer has 2 orbits on weight-4 vertices",
              "2", lambda wb: _sphere_orbits(wb, "nr", 4)),
        Claim("nr.orbits.low", nr,
              "permutation stabilizer is transitive on weights 1, 2, 3",
              ["1", "1", "1"],
              lambda wb: [_sphere_orbits(wb, "nr", k) for k in (1, 2, 3)]),
        Claim("nr.ct", nr, "orbits of the stabilizer equal the distance partition",
              [True, "5"], lambda wb: _ct_summary(wb, "nr")),
        Claim("rm.params", nr, "kernel subcode is a linear [16,5,8] subset",
              ["32", "8", True, True], _subcode_params),
        Claim("rm.cr", nr, "the [16,5,8] subcode is completely regular",
              regular, lambda wb: _cr_summary(wb, "reed_muller"),
              note="expected to fail: two vertices at distance 4 from the "
              "subcode have different codeword-distance profiles, so the "
              "subcode is not completely regular; the computed value "
              "carries one witness pair"),
        Claim("feas.nr.unique", nr,
              "transform nonnegativity forces the unknown entries to (0, 30)",
              [["0", "30"]], lambda wb: _solutions(wb, "nr", 7, 8)),
        Claim("feas.nr.row_k2", nr, "derived constraint row at k = 2",
              "240 - 12*a7 - 8*a8 >= 0", lambda wb: _constraint_row(wb, "nr", 2)),
        Claim("feas.nr.row_k4", nr, "derived constraint row at k = 4",
              "-840 + 28*a7 + 28*a8 >= 0", lambda wb: _constraint_row(wb, "nr", 4),
              note="the a7 coefficient of this derived row is +28; a commonly "
              "printed form of the same system carries -28 there; both "
              "systems have the identical unique solution (0, 30)"),
        Claim("feas.nr.lambda", nr,
              "design multiplicity: odd values inadmissible, bound 13/3",
              ["13/3", ["2", "4"]], lambda wb: _lambda_elimination(16, 6, 3)),
        Claim("pn.params", pn, "puncturing yields a (15, 256, 5) code",
              ["15", "256", "5"], lambda wb: _params(wb, "pn")),
        Claim("pn.weight5.count", pn, "42 words of weight 5",
              "42", lambda wb: _weight_count(wb, "pn", 5)),
        Claim("pn.dist", pn, "distance distribution of the (15, 256, 5) code",
              fmt(list(PN_DISTRIBUTION)), lambda wb: _distribution(wb, "pn")),
        Claim("pn.antipodal", pn, "the punctured code is closed under complement",
              True, lambda wb: _antipodal(wb, "pn")),
        Claim("pn.rho", pn, "covering radius 3", "3", lambda wb: _rho(wb, "pn")),
        Claim("pn.cells", pn, "distance-partition cell sizes",
              ["256", "3840", "26880", "1792"], lambda wb: _cell_sizes(wb, "pn")),
        Claim("pn.cr", pn, "the punctured code is completely regular",
              regular, lambda wb: _cr_summary(wb, "pn")),
        Claim("pn.design.w5", pn, "weight-5 words form a 2-design with 42 blocks",
              ["4", "42"], lambda wb: _design_summary(wb, "pn", 5, 2)),
        Claim("pn.kernel.size", pn, "translation kernel has 32 words",
              "32", lambda wb: str(1 << len(wb.code("pn").kernel))),
        Claim("pn.perm.order", pn, "permutation stabilizer has order 2520",
              "2520", lambda wb: _perm_order(wb, "pn")),
        Claim("pn.orbits.sphere3", pn,
              "permutation stabilizer has 2 orbits on weight-3 vertices",
              "2", lambda wb: _sphere_orbits(wb, "pn", 3)),
        Claim("pn.ct", pn, "orbits of the stabilizer equal the distance partition",
              [True, "4"], lambda wb: _ct_summary(wb, "pn")),
        Claim("pn.puncture.equiv", pn,
              "all 16 puncture positions give equivalent codes",
              "equivalent for 15/15 puncture positions", _puncture_equivalences),
        Claim("feas.pn.unique", pn,
              "transform nonnegativity forces the unknown entries to (70, 15)",
              [["70", "15"]], lambda wb: _solutions(wb, "pn", 6, 7)),
        Claim("feas.pn.lambda", pn,
              "design multiplicity: odd values inadmissible, bound 13/3",
              ["13/3", ["2", "4"]], lambda wb: _lambda_elimination(15, 5, 2)),
        Claim("external.snover.nr", nr,
              "every binary (16, 256, 6) code is equivalent to this one",
              citation="Snover (1973), uniqueness of the (16, 256, 6) code; "
              "not recomputed"),
        Claim("external.snover.pn", pn,
              "every binary (15, 256, 5) code is equivalent to this one",
              citation="Snover (1973), uniqueness of the (15, 256, 5) code; "
              "not recomputed"),
        Claim("external.design.lambda2.nr", nr,
              "no 3-(16, 6, 2) design exists, so the multiplicity is 4",
              citation="Handbook of Combinatorial Designs, 3-design tables; "
              "not recomputed"),
        Claim("external.design.lambda2.pn", pn,
              "no 2-(15, 5, 2) design exists, so the multiplicity is 4",
              citation="Handbook of Combinatorial Designs, 2-design tables; "
              "not recomputed"),
    )
    ids = [c.claim_id for c in claims]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate claim id in the manifest")
    return claims


TARGETS = ("nr", "pn", "all")


class ReportEntry(NamedTuple):
    claim_id: str
    statement: str
    expected: object
    computed: object
    status: str
    wall_time: str
    citation: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        """The fields in order, without a citation or note that is None."""
        out = self._asdict()
        for key in ("citation", "note"):
            if out[key] is None:
                del out[key]
        return out


class VerificationReport(NamedTuple):
    version: str
    target: str
    entries: list[ReportEntry]

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

    Stages are built once in `workbench` (default: a new `Workbench()`);
    symmetry claims on a kernel not RM(1,4): "not computed".
    """
    if target not in TARGETS:
        raise ValueError(f"unknown verification target {target!r}")
    wb = workbench if workbench is not None else Workbench()
    report = VerificationReport(version=__version__, target=target, entries=[])
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
                "cell": str(i),
                "cell_size": str(c.cell_size),
                "orbit_size": str(c.orbit_size),
            }
            for i, c in enumerate(res.cells)
        ],
        "generators": [format_aut_element(g) for g in gens],
    }
