"""Correctness checks of the program's outputs, from the definitions.

Nothing here compares search output byte for byte: a faster search may
find other generators and witnesses.  Invariants of a code are compared
with `reference.json`, the values of the unpermuted base codes; anything
that depends on the labelling (weight histogram, predicates, witnesses,
generators) is recomputed from the words by brute force.

Each checker returns a list of problems per operation; an operation fails
if its list is non-empty.  The `self_test_*` functions plant wrong
answers in a copy of real output and require each to fail exactly the
operation it touches.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text("utf-8"))


# ---------------------------------------------------------------------------
# Brute force over words and vertices.

def profile(v: int, words) -> tuple[int, ...]:
    """Number of codewords at each distance 0..m from the vertex v."""
    counts = [0] * 25
    for w in words:
        counts[(v ^ w).bit_count()] += 1
    return tuple(counts)


def distance_to_code(words, m: int) -> np.ndarray:
    """min over codewords of d(v, w), for every vertex v, by direct scan."""
    arr = np.asarray(words, dtype=np.uint32)
    verts = np.arange(1 << m, dtype=np.uint32)
    out = np.empty(1 << m, dtype=np.uint8)
    step = max(1, (1 << 22) // len(arr))
    for lo in range(0, 1 << m, step):
        block = verts[lo:lo + step, None] ^ arr[None, :]
        out[lo:lo + step] = np.bitwise_count(block).min(axis=1)
    return out


def gf2_rank(words) -> int:
    basis: list[int] = []
    for w in words:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
    return len(basis)


def predicates(words, m: int) -> dict:
    member = set(words)
    full = (1 << m) - 1
    return {
        "is_linear": 0 in member and len(member) == 1 << gf2_rank(words),
        "is_even": all(w.bit_count() % 2 == 0 for w in words),
        "is_antipodal": all(w ^ full in member for w in words),
    }


def witness_problems(cell: int, va: int, vb: int, words, m: int,
                     profile_a=None, profile_b=None) -> list[str]:
    """Both vertices at distance `cell` from the code, with different
    codeword-distance profiles (and the reported profiles, if given)."""
    problems = []
    pa, pb = profile(va, words)[:m + 1], profile(vb, words)[:m + 1]
    for name, v, p in (("a", va, pa), ("b", vb, pb)):
        if not 0 <= v < 1 << m:
            return [f"witness vertex {name} outside the vertex space"]
        d = next(k for k, c in enumerate(p) if c)
        if d != cell:
            problems.append(f"witness vertex {name} is in cell {d}, not {cell}")
    if pa == pb:
        problems.append("witness vertices have equal profiles")
    if profile_a is not None and (list(pa), list(pb)) != (profile_a, profile_b):
        problems.append("reported witness profiles differ from brute force")
    return problems


# ---------------------------------------------------------------------------
# Transitivity certificates.

def parse_generator(line: str, m: int) -> tuple[int, tuple[int, ...]]:
    """'beta=<m bits> sigma=<images of 1..m>' -> (beta, 0-based sigma)."""
    parts = line.split()
    if len(parts) < 2 or not parts[0].startswith("beta=") or not parts[1].startswith("sigma="):
        raise ValueError(f"malformed generator {line!r}")
    bits = parts[0][len("beta="):]
    if len(bits) != m or set(bits) - {"0", "1"}:
        raise ValueError(f"bad translation in {line!r}")
    beta = sum(1 << i for i, c in enumerate(bits) if c == "1")
    sigma = tuple(int(t) - 1 for t in [parts[1][len("sigma="):]] + parts[2:])
    if sorted(sigma) != list(range(m)):
        raise ValueError(f"sigma is not a permutation of 1..{m} in {line!r}")
    return beta, sigma


def action_table(beta: int, sigma, m: int) -> np.ndarray:
    """v -> permute(v + beta) for every vertex."""
    verts = np.arange(1 << m, dtype=np.uint32) ^ np.uint32(beta)
    out = np.zeros(1 << m, dtype=np.uint32)
    for j, s in enumerate(sigma):
        out |= ((verts >> np.uint32(j)) & np.uint32(1)) << np.uint32(s)
    return out


def certificate_problems(cert: dict, words, m: int, cell_sizes) -> list[str]:
    """Generators parse and stabilize the code, the matched cells are the
    reference cells, and the orbits of the generated group on all 2^m
    vertices are exactly the distance cells."""
    problems = []
    member = np.zeros(1 << m, dtype=bool)
    member[np.asarray(words, dtype=np.uint32)] = True
    tables = []
    for line in cert.get("generators", []):
        try:
            beta, sigma = parse_generator(line, m)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        table = action_table(beta, sigma, m)
        if not member[table[member]].all():
            problems.append(f"generator does not stabilize the code: {line}")
        tables.append(table)
    cells = cert.get("matched_cells", [])
    if [c.get("cell_size") for c in cells] != cell_sizes:
        problems.append("matched cell sizes differ from the reference cells")
    if any(c.get("orbit_size") != c.get("cell_size") for c in cells):
        problems.append("a matched orbit size differs from its cell size")
    if not problems:
        labels = np.arange(1 << m, dtype=np.uint32)
        while True:
            before = labels.copy()
            for t in tables:
                np.minimum(labels, labels[t], out=labels)
            if (labels == before).all():
                break
        dist = distance_to_code(words, m)
        for i in range(int(dist.max()) + 1):
            if len(np.unique(labels[dist == i])) != 1:
                problems.append(f"cell {i} is not a single orbit of the generators")
        if len(np.unique(labels)) != int(dist.max()) + 1:
            problems.append("orbits do not match the distance cells")
    return problems


# ---------------------------------------------------------------------------
# Workload checkers.

def check_verify(op: dict, report: dict | None, codes: dict) -> dict[str, list[str]]:
    """Problems per claim id of one `verify all --json` call.

    Each claim's status must equal its status at the reference commit and
    a passing claim must have computed == expected.  The rm.cr witness and
    both transitivity certificates are checked from their definitions.
    The exit code and the failing-claims line must agree with the
    statuses; a disagreement, an exception or a missing report fails
    every claim.
    """
    ref = REFERENCE["verify"]
    problems = {cid: [] for cid in ref["status"]}
    fatal = []
    if op["error"] is not None:
        fatal.append(f"raised: {op['error'].strip().splitlines()[-1]}")
    elif report is None:
        fatal.append("no JSON report written")
    if fatal:
        return {cid: fatal for cid in problems}
    entries = {e["claim_id"]: e for e in report.get("entries", [])}
    if set(entries) != set(problems):
        fatal.append("report claim ids differ from the manifest")
    failing = [e["claim_id"] for e in report["entries"] if e["status"] == "fail"]
    if op["rc"] != (1 if failing else 0):
        fatal.append(f"exit code {op['rc']} with failing claims {failing}")
    stated = op["stderr"].strip().splitlines()[-1:] if failing else []
    if stated != ([f"failing claims: {', '.join(failing)}"] if failing else []):
        fatal.append("failing-claims line disagrees with the report")
    if fatal:
        return {cid: fatal for cid in problems}

    for cid, status in ref["status"].items():
        e = entries[cid]
        if e["status"] != status:
            problems[cid].append(f"status {e['status']}, expected {status}")
        if e["status"] == "pass" and e["computed"] != e["expected"]:
            problems[cid].append("pass with computed != expected")
    rm_m, rm_words = codes["rm"]
    computed = entries["rm.cr"]["computed"]
    try:
        _, cell, va, vb = computed
        problems["rm.cr"] += witness_problems(int(cell), int(va), int(vb), rm_words, rm_m)
    except (TypeError, ValueError):
        problems["rm.cr"].append(f"malformed witness {computed!r}")
    for name in ("nr", "pn"):
        cert = report.get(f"{name}_transitivity_certificate")
        m, words = codes[name]
        if cert is None:
            problems[f"{name}.ct"].append("transitivity certificate missing")
        else:
            problems[f"{name}.ct"] += certificate_problems(
                cert, words, m, ref["cell_sizes"][name])
    return problems


def check_analyze(op: dict, inp: dict) -> list[str]:
    """Problems of one `analyze <file>` call on a generated image."""
    if op["error"] is not None:
        return [f"raised: {op['error'].strip().splitlines()[-1]}"]
    if op["rc"] != 0:
        return [f"exit code {op['rc']}"]
    try:
        doc = json.loads(op["stdout"])
    except ValueError:
        return ["output is not JSON"]
    ref = REFERENCE["analyze"][inp["family"]]
    words, m = inp["words"], inp["m"]
    problems = [f"{k} differs from the base code" for k, v in ref.items()
                if doc.get(k) != v]
    hist = [0] * (m + 1)
    for w in words:
        hist[w.bit_count()] += 1
    if doc.get("weight_histogram") != [str(h) for h in hist]:
        problems.append("weight_histogram differs from the input words")
    if doc.get("predicates") != predicates(words, m):
        problems.append("predicates differ from the input words")
    if not ref["completely_regular"]:
        try:
            w = doc["witness"]
            problems += witness_problems(
                int(w["cell"]), int(w["vertex_a"]), int(w["vertex_b"]), words, m,
                [int(x) for x in w["profile_a"]], [int(x) for x in w["profile_b"]])
        except (KeyError, TypeError, ValueError):
            problems.append("witness missing or malformed")
    return problems


# ---------------------------------------------------------------------------
# Planted wrong answers.

def _failed(problems: dict[str, list[str]]) -> list[str]:
    return sorted(cid for cid, p in problems.items() if p)


def self_test_verify(op: dict, report: dict, codes: dict) -> list[str]:
    """A wrong generator, a witness across two cells and a None from
    find_equivalence must each fail exactly their own claim."""
    if _failed(check_verify(op, report, codes)):
        return ["the unmodified report does not pass"]
    errors = []

    bad_gen = copy.deepcopy(report)
    cert = bad_gen["nr_transitivity_certificate"]
    # a weight-1 translation cannot stabilize a code of minimum distance 6
    cert["generators"][0] = "beta=1" + "0" * 15 + " sigma=" + " ".join(
        str(i) for i in range(1, 17))
    if _failed(check_verify(op, bad_gen, codes)) != ["nr.ct"]:
        errors.append("a wrong generator was not caught")

    cross = copy.deepcopy(report)
    entry = next(e for e in cross["entries"] if e["claim_id"] == "rm.cr")
    entry["computed"][3] = str(codes["rm"][1][0])  # a codeword: cell 0
    if _failed(check_verify(op, cross, codes)) != ["rm.cr"]:
        errors.append("a witness pair from two cells was not caught")

    # find_equivalence returning None for one puncture position
    miss = copy.deepcopy(report)
    entry = next(e for e in miss["entries"] if e["claim_id"] == "pn.puncture.equiv")
    entry["computed"], entry["status"] = "equivalent for 14/15 puncture positions", "fail"
    failing = [e["claim_id"] for e in miss["entries"] if e["status"] == "fail"]
    miss_op = dict(op, stderr=f"failing claims: {', '.join(failing)}\n")
    if _failed(check_verify(miss_op, miss, codes)) != ["pn.puncture.equiv"]:
        errors.append("a None from find_equivalence was not caught")
    return errors


def self_test_analyze(ops: list[dict], inputs: list[dict]) -> list[str]:
    """A witness pair taken from two different cells must fail its op."""
    idx = next(i for i, inp in enumerate(inputs) if inp["family"] == "rm")
    op, inp = ops[idx], inputs[idx]
    if check_analyze(op, inp):
        return ["the unmodified output does not pass"]
    doc = json.loads(op["stdout"])
    codeword = inp["words"][0]
    doc["witness"]["vertex_b"] = str(codeword)
    doc["witness"]["profile_b"] = [str(c) for c in profile(codeword, inp["words"])[:inp["m"] + 1]]
    if not check_analyze(dict(op, stdout=json.dumps(doc)), inp):
        return ["a witness pair from two cells was not caught"]
    return []
