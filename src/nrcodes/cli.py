"""Command-line front end.

Subcommands: `construct` writes a named code to a file, `analyze` prints
the full spectrum of a code file as JSON, `verify` runs the built-in claim
manifest, and `feasible` solves a partially specified distance
distribution.  Exit codes are stable: 0 success, 1 claim or feasibility
failure, 2 input error, and 141 when standard output is closed before the
output is written (`nrcodes verify all | head -1`): the run ends quietly,
with the status of a process killed by SIGPIPE.  `main` maps input and
limit errors to exit 2 in one place: any `ValueError` or `OSError` that a
handler lets through, `WorkLimitExceeded` included, prints one line
`error: <message>` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .codes import code_predicates, named_code, read_code, write_code
from .hamming import WorkLimitExceeded, check_length, parse_decimal
from .report import Workbench, fmt, run_verification, transitivity_certificate
from .spectrum import (
    FeasibilityError,
    completely_regular_check,
    distance_distribution,
    distance_partition,
    feasible_distributions,
    macwilliams_transform,
)
from .symmetry import parse_budget

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CLOSED_OUTPUT = 141  # 128 + SIGPIPE


def cmd_construct(args) -> int:
    try:
        code = named_code(args.name)
    except KeyError:
        print(f"error: unknown code name {args.name!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        write_code(code, args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


def cmd_analyze(args) -> int:
    code = read_code(args.path)
    dd = distance_distribution(code)
    try:
        res = completely_regular_check(code)
        part = res.partition
    except WorkLimitExceeded:
        res, part = None, distance_partition(code)
    preds = code_predicates(code)
    doc = {
        "m": str(code.m),
        "size": str(code.size),
        "min_distance": fmt(code.min_distance) if code.min_distance else None,
        "weight_histogram": fmt(list(code.weight_histogram)),
        "distance_distribution": fmt(list(dd.a)),
        "macwilliams_transform": fmt(list(macwilliams_transform(dd))),
        "covering_radius": str(part.rho),
        "cell_sizes": fmt(list(part.cell_sizes)),
        "predicates": {
            "is_linear": preds.is_linear,
            "is_even": preds.is_even,
            "is_antipodal": preds.is_antipodal,
        },
    }
    if res is None:
        doc["completely_regular"] = None
        doc["regularity_note"] = (
            "skipped: full profile scan too large for a nonlinear code"
        )
    else:
        doc["completely_regular"] = res.ok
        if res.ok:
            doc["intersection_table"] = [fmt(list(r)) for r in res.rows]
        else:
            w = res.witness
            doc["witness"] = {
                "cell": str(w.cell),
                "vertex_a": str(w.vertex_a),
                "vertex_b": str(w.vertex_b),
                "profile_a": fmt(list(w.profile_a)),
                "profile_b": fmt(list(w.profile_b)),
            }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    wb = Workbench(budget=args.budget)
    report = run_verification(args.target, workbench=wb)
    for entry in report.entries:
        label = entry.status.upper().replace("-", " ")
        print(f"{label:14s} {entry.claim_id:28s} {entry.statement}")
        if entry.status == "fail":
            print(f"{'':14s}   expected: {entry.expected}")
            print(f"{'':14s}   computed: {entry.computed}")
    failing = report.failing_ids()
    n_pass = sum(1 for e in report.entries if e.status == "pass")
    n_ext = sum(1 for e in report.entries if e.status == "external-fact")
    print(
        f"\n{n_pass} passed, {len(failing)} failed, "
        f"{n_ext} external facts ({len(report.entries)} claims)"
    )
    if args.json:
        doc = report.to_dict()
        if args.target in ("nr", "all"):
            doc["nr_transitivity_certificate"] = transitivity_certificate(wb, "nr")
        if args.target in ("pn", "all"):
            doc["pn_transitivity_certificate"] = transitivity_certificate(wb, "pn")
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if failing:
        print(f"failing claims: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CLAIM_FAILURE
    return EXIT_OK


def _parse_template(spec: str, m: int, antipodal: bool):
    """Comma list of 'i=value' or 'i=?', each index at most once, i and
    value ASCII digits (spaces around either side are ignored);
    unspecified entries default to 0 (entry 0 defaults to 1).  Under the
    antipodal tie, an unspecified entry m-i inherits the specification of
    entry i."""
    template: list[int | None] = [0] * (m + 1)
    template[0] = 1
    explicit: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad template entry {part!r}, expected i=value or i=?")
        idx_s, _, val_s = (side.strip() for side in part.partition("="))
        idx = parse_decimal(idx_s, "template index")
        if not 0 <= idx <= m:
            raise ValueError(f"template index {idx} outside 0..{m}")
        if idx in explicit:
            raise ValueError(f"template index {idx} given twice")
        template[idx] = None if val_s == "?" else parse_decimal(val_s, "template value")
        explicit.add(idx)
    if antipodal:
        for idx in sorted(explicit):
            mirror = m - idx
            if mirror not in explicit:
                template[mirror] = template[idx]
    return template


def cmd_feasible(args) -> int:
    m = parse_decimal(args.m, "length")
    check_length(m)
    template = _parse_template(args.template, m, args.antipodal)
    try:
        res = feasible_distributions(m, template, antipodal=args.antipodal)
    except FeasibilityError as exc:
        print(json.dumps({"error": str(exc)}, indent=2))
        return EXIT_CLAIM_FAILURE
    doc = {
        "m": str(m),
        "unknowns": [
            {"name": name, "entries": fmt(list(group)), "range": fmt(list(b))}
            for name, group, b in zip(res.names, res.variables, res.bounds)
        ],
        "constraint_rows": [
            {"k": str(row.k), "row": row.render(res.names)} for row in res.rows
        ],
        "solutions": [
            {name: str(sol[group[0]]) for name, group in zip(res.names, res.variables)}
            for sol in res.solutions
        ],
        "distributions": [fmt(list(d)) for d in res.distributions],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _node_budget(text: str) -> int:
    try:
        return parse_budget(text, "node budget")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nrcodes",
        description="Construct the Nordstrom-Robinson codes and verify "
        "their documented properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a named code to a file")
    p.add_argument(
        "name",
        help="golay24, reed_muller, nr, pn, or pn@<p> for p in 1..16",
    )
    p.add_argument("-o", "--output", required=True, help="output file path")

    p = sub.add_parser("analyze", help="print the spectrum of a code file")
    p.add_argument("path", help="code file to analyze")

    p = sub.add_parser("verify", help="run the built-in claim manifest")
    p.add_argument("target", choices=["nr", "pn", "all"])
    p.add_argument("--json", help="also write the JSON report to this path")
    p.add_argument(
        "--budget", type=_node_budget, default=None,
        help="node budget of each orbit walk of a code's images under the "
        "affine group of its kernel, one node per image (default: "
        "NRCODES_BUDGET or 10^8)",
    )

    p = sub.add_parser("feasible", help="solve a distance-distribution template")
    p.add_argument("-m", required=True, help="code length, in ASCII digits")
    p.add_argument(
        "-t", "--template", required=True,
        help="comma list of i=value and i=? entries; others default to 0",
    )
    p.add_argument(
        "--antipodal", action="store_true",
        help="tie entries i and m-i to the same unknown",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up per call rather than stored in the cached parser, so
        # that a handler rebound after the first call (perfbench's tracer
        # wraps them) is the one that runs.
        status = globals()[f"cmd_{args.command}"](args)
        # a closed pipe shows on the first write that reaches it
        sys.stdout.flush()
    except BrokenPipeError:
        # Output still buffered would fail again at exit: send it nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_OUTPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
