import ast
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nrcodes import cli
from nrcodes import report as report_module
from nrcodes import spectrum, symmetry
from nrcodes.cli import build_parser, main
from nrcodes.codes import Code, named_code, puncture, span, write_code
from nrcodes.report import (
    Workbench,
    build_manifest,
    fmt,
    run_verification,
    transitivity_certificate,
)
from nrcodes.spectrum import distance_partition
from nrcodes.symmetry import PermGroup
from oracles import brute_orbits, brute_profile


def test_fmt_serialization():
    assert fmt(5) == "5"
    assert fmt(2**60) == str(2**60)
    assert fmt(Fraction(7, 2)) == "7/2"
    assert fmt(Fraction(8, 2)) == "4"
    assert fmt([1, Fraction(1, 3)]) == ["1", "1/3"]
    assert fmt({"a": 2}) == {"a": "2"}
    assert fmt(True) is True


def test_manifest_ids_unique_and_tagged():
    manifest = build_manifest()
    ids = [c.claim_id for c in manifest]
    assert len(ids) == len(set(ids))
    for claim in manifest:
        assert claim.targets <= {"nr", "pn"}
        if claim.compute is None:
            assert claim.citation  # external facts carry their citation


def test_run_verification_nr_excludes_pn_claims():
    report = run_verification("nr")
    ids = {e.claim_id for e in report.entries}
    assert not any(i.startswith("pn.") or i.startswith("feas.pn") for i in ids)
    assert "nr.ct" in ids and "golay.delta" in ids
    # the one documented failure: the [16,5,8] subcode is not completely regular
    assert report.failing_ids() == ["rm.cr"]


def test_run_verification_pn_passes():
    report = run_verification("pn")
    assert report.failing_ids() == []
    statuses = {e.claim_id: e.status for e in report.entries}
    assert statuses["external.snover.pn"] == "external-fact"
    assert statuses["pn.ct"] == "pass"
    assert not any(i.startswith("nr.") for i in statuses)


def test_corrupted_code_fails_claims(nr, monkeypatch):
    words = list(nr.words)
    words[10] ^= 1
    corrupted = Code(16, words)
    named_code = report_module.named_code
    monkeypatch.setattr(
        report_module,
        "named_code",
        lambda name: corrupted if name == "nr" else named_code(name),
    )
    report = run_verification("nr", workbench=Workbench())
    failing = set(report.failing_ids())
    assert "nr.params" in failing  # minimum distance drops
    assert "nr.even" in failing
    assert "nr.cr" in failing


# Calls per `verify all`: orbit labels are computed once per sphere claim
# (weights 1, 2, 3 and 4 for NR, 3 for PN) and once per transitivity check;
# NR's orbit walk and PN's group read off NR's Sims table skip elements
# that their own growing Sims table already holds, with no orbit labels.
# `maps_onto` checks each automorphism once per entry point: the orbit
# walk's 13 affine generators on NR's kernel and its 5 kept Schreier
# generators on NR, PN's 4 Sims row elements as its group takes them, and
# each transitivity check its generators (NR 11, PN 10), the only check of
# the generators and of the one mover each code takes.  Each transitivity
# check reads its orbit minima's distances off the distance partition that
# its code's regularity check returned, so the quotient sweep
# `distance_partition` never runs; the four codes with a regularity claim
# are checked once each; only NR's orbit is walked, PN's group is read off
# its Sims table; the puncture claim checks NR's words and builds no
# punctured code.
STAGE_CALLS = {
    "_orbit_labels": 7,
    "maps_onto": 43,
    "distance_partition": 0,
    "completely_regular_check": 4,
    "affine_stabilizer": 1,
    "puncture": 0,
}


def count_calls(monkeypatch, names) -> dict[str, int]:
    """Count the calls of each named function of `report`, `spectrum` and
    `symmetry`."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (report_module, spectrum, symmetry):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_verify_all_builds_each_stage_once(monkeypatch):
    calls = count_calls(monkeypatch, STAGE_CALLS)
    run_verification("all")
    assert calls == STAGE_CALLS


def test_verify_all_search_work_pinned(monkeypatch):
    # Per `verify all`, NR's and PN's symmetry takes one orbit walk of NR's
    # 8 images under AGL(4,2), one budget node each, and no backtrack
    # search or generator assembly: none of their functions exists any more.
    for name in ("_Incidence", "_refine", "_search_permutation",
                 "enumerate_perm_automorphisms", "assemble_aut_generators"):
        assert not hasattr(symmetry, name)
    charge = symmetry._Budget.charge
    nodes = []
    monkeypatch.setattr(symmetry._Budget, "charge", lambda b: nodes.append(charge(b)))
    run_verification("all")
    assert len(nodes) == 8


def test_a_code_without_its_mover_fails_transitivity(monkeypatch, capsys):
    # With no mover from NR's orbit walk, NR's and PN's generators keep the
    # kernel coset of the zero word: cell 0, the code, splits into orbits,
    # and both transitivity claims fail with a cell-0 witness; so does NR's
    # mu-image order, read off the same generators.  `verify all` reports
    # the failures and exits 1; it does not crash.
    affine_stabilizer = symmetry.affine_stabilizer
    monkeypatch.setattr(
        report_module, "affine_stabilizer",
        lambda code, budget=None: (affine_stabilizer(code, budget)[0], []),
    )
    wb = Workbench()
    report = run_verification("all", workbench=wb)
    statuses = {e.claim_id: e.status for e in report.entries}
    assert statuses["nr.ct"] == statuses["pn.ct"] == "fail"
    assert wb.transitivity("nr").witness[0] == wb.transitivity("pn").witness[0] == 0
    assert main(["verify", "all"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL           nr.ct" in out and "FAIL           pn.ct" in out
    assert err == "failing claims: nr.mu.order, nr.ct, rm.cr, pn.ct\n"


def test_puncture_claim_rests_on_maps_onto(monkeypatch):
    # A row-0 element that sends 0 to 5 but is no automorphism of NR
    # must cost its position, and the claim must fail.
    row = PermGroup.row
    bad = (5, 1, 2, 3, 4, 0) + tuple(range(6, 16))

    def tampered(self, k):
        out = dict(row(self, k))
        if k == 0 and self.degree == 16:
            out[5] = bad
        return out

    monkeypatch.setattr(PermGroup, "row", tampered)
    entry = next(
        e for e in run_verification("pn").entries if e.claim_id == "pn.puncture.equiv"
    )
    assert entry.computed == "equivalent for 14/15 puncture positions"
    assert entry.status == "fail"


# sha256 of `verify all`'s deterministic report (every wall_time "0"):
# refactors must leave it byte-identical.
REPORT_ALL_SHA256 = "cf2831a5285ec87b540f578583fcf99efb3efac795d744e7c255264eda9be2cb"


def test_reports_identical_apart_from_wall_time():
    a = run_verification("nr")
    b = run_verification("nr")
    c = run_verification("all")
    for report in (a, b, c):
        report.entries[:] = [e._replace(wall_time="0") for e in report.entries]
    assert a.to_json() == b.to_json()
    assert hashlib.sha256(c.to_json().encode()).hexdigest() == REPORT_ALL_SHA256


# sha256 of the file `verify all --json` writes, with the report's clock
# frozen so that every wall_time reads "0.000000": the report and both
# transitivity certificates, byte for byte, as the command encodes them.
VERIFY_ALL_JSON_SHA256 = "ab58e1e722a8e057948fb97a2807136534193f37f0fa1408ff8a28e4bfc61efd"


def test_verify_all_json_file_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(report_module, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    path = tmp_path / "report.json"
    assert main(["verify", "all", "--json", str(path)]) == 1
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_ALL_JSON_SHA256


# sha256 of each transitivity certificate as `json.dumps(cert, sort_keys=True)`:
# the affine route must give exactly these generators and orbit sizes, which
# test_transitivity_certificates_hold_by_definition checks from the text.
CERTIFICATE_SHA256 = {
    "nr": "91dae4d6617c53ea4fa14401d2014c39edc7cb5edc2eef2e84212c4673eceb37",
    "pn": "35d089c55a5597a13408fb2aefe659af5aff28f37d2ba0a647fed93de393264c",
}


def test_transitivity_certificates_pinned():
    wb = Workbench()
    for which, digest in CERTIFICATE_SHA256.items():
        cert = json.dumps(transitivity_certificate(wb, which), sort_keys=True)
        assert hashlib.sha256(cert.encode()).hexdigest() == digest


def _parse_generator(line: str, m: int) -> SimpleNamespace:
    """beta and sigma (0-based images) of a generator's text form,
    "beta=<0/1 per coordinate, coordinate 1 leftmost> sigma=<images of 1..m>"."""
    beta_text, _, sigma_text = line.removeprefix("beta=").partition(" sigma=")
    sigma = tuple(int(t) - 1 for t in sigma_text.split(" "))
    assert len(beta_text) == m and set(beta_text) <= {"0", "1"}
    assert sorted(sigma) == list(range(m))
    beta = sum(1 << j for j, bit in enumerate(beta_text) if bit == "1")
    return SimpleNamespace(beta=beta, sigma=sigma)


def test_transitivity_certificates_hold_by_definition(tmp_path, capsys, nr, pn):
    # The generators that `verify all --json` prints, read back from their
    # text, must each map the code onto itself, and their orbits on all of
    # F_2^m must be exactly the cells of the distance partition, with the
    # sizes the certificate states.
    path = tmp_path / "report.json"
    assert main(["verify", "all", "--json", str(path)]) == 1
    capsys.readouterr()
    doc = json.loads(path.read_text())
    for which, code in (("nr", nr), ("pn", pn)):
        cert = doc[f"{which}_transitivity_certificate"]
        m, words = code.m, set(code.words)
        gens = [_parse_generator(line, m) for line in cert["generators"]]
        for g in gens:
            images = {
                sum((((w ^ g.beta) >> j) & 1) << s for j, s in enumerate(g.sigma))
                for w in words
            }
            assert images == words
        labels = np.array(brute_orbits(gens, m))
        verts = np.arange(1 << m)
        dist = np.full(1 << m, m)
        for w in words:
            np.minimum(dist, np.bitwise_count(verts ^ w), out=dist)
        pairs = set(zip(labels.tolist(), dist.tolist()))
        assert len(pairs) == len(set(labels.tolist())) == len(set(dist.tolist()))
        sizes = np.bincount(dist)
        assert cert["matched_cells"] == [
            {"cell": str(i), "cell_size": str(n), "orbit_size": str(n)}
            for i, n in enumerate(sizes.tolist())
        ]


def test_cli_construct_and_analyze(tmp_path, capsys):
    out = tmp_path / "nr.code"
    assert main(["construct", "nr", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m=16" and len(lines) == 257

    assert main(["analyze", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == "16"
    assert doc["min_distance"] == "6"
    assert doc["covering_radius"] == "4"
    assert doc["completely_regular"] is True
    assert doc["weight_histogram"][6] == "112"
    assert doc["predicates"]["is_antipodal"] is True


# sha256 of `analyze` stdout on each `construct` file: the pair counts,
# minimum distance and linearity read the cached kernel quotient, and the
# output must stay byte-identical to the all-pairs scan's.
ANALYZE_SHA256 = {
    "golay24": "4b6e0a940d6067d33100a608611286fd5edbe1a52589183145a9292103985c03",
    "nr": "36e6159f705366570246fb1c707a5d8dc4bbb288dc946869f824dce7b94963bd",
    "pn": "79d4d4b514b1dfa248d6feb46970d6a6e0ea5aa2863bca65465a7f5ac3b98833",
    "reed_muller": "1cf18278fcedf6ba668e2847681b63041c49d510796cdd052c9650a059ba7440",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_cli_analyze_output_pinned(tmp_path, capsys, name):
    out = tmp_path / f"{name}.code"
    assert main(["construct", name, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == ANALYZE_SHA256[name]


# sha256 of `analyze` stdout on one image of each family the benchmark's
# `analyze` workload reads: the code under a fixed coordinate permutation,
# translated as well when m <= 16.  These inputs read unsorted, permuted
# and translated words, where the `construct` files above are canonical.
# Every field is invariant under a permutation, so the Golay image, left
# untranslated, prints what its `construct` file prints.
IMAGE_ANALYZE_SHA256 = {
    "golay24": "4b6e0a940d6067d33100a608611286fd5edbe1a52589183145a9292103985c03",
    "golay24@1": "2dcd5e7468124f91647996fbe84f5730e048434bf1ea6e0d5b28938be1d19332",
    "nr": "3436a1cbf2078eac55e6bab95ca431e0c41efd97c7e126bc025554d1a84c8a65",
    "pn": "f5735cd93c37d957f39e8ba998ceb6fb729b9a9e08a71c89787125a0ffe2442f",
    "reed_muller": "729af2237929afee4a2c5c716f6bc321e233a81b1f3f736451de7737476bc080",
}


def image_file(tmp_path, name):
    """The code `name` (golay24@1 is the Golay code punctured at 1) moved
    by a permutation sigma, bit j to bit sigma[j], after adding beta."""
    if name == "golay24@1":
        code = puncture(named_code("golay24"), 1)
    else:
        code = named_code(name)
    m = code.m
    rng = random.Random(name)
    sigma = list(range(m))
    rng.shuffle(sigma)
    beta = rng.getrandbits(m) if m <= 16 else 0
    image = [
        sum(((w ^ beta) >> j & 1) << s for j, s in enumerate(sigma))
        for w in code.words
    ]
    lines = [f"m={m}"] + [
        "".join(str(w >> i & 1) for i in range(m)) for w in image
    ]
    path = tmp_path / f"{name}.code"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(IMAGE_ANALYZE_SHA256))
def test_cli_analyze_image_output_pinned(tmp_path, capsys, name):
    assert main(["analyze", str(image_file(tmp_path, name))]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == IMAGE_ANALYZE_SHA256[name]


def test_analyze_never_builds_the_word_tuple(tmp_path, capsys, monkeypatch):
    # analyze reads every quantity off the code's word array; the tuple of
    # Python ints is for the claims that walk the words one at a time.
    cases = []
    for name in sorted(ANALYZE_SHA256):
        path = tmp_path / f"construct-{name}.code"
        assert main(["construct", name, "-o", str(path)]) == 0
        cases.append((path, ANALYZE_SHA256[name]))
    (tmp_path / "image").mkdir()
    cases.append((image_file(tmp_path / "image", "nr"), IMAGE_ANALYZE_SHA256["nr"]))
    capsys.readouterr()

    def no_tuple(code):
        raise AssertionError("the word tuple was built")

    monkeypatch.setattr(Code, "words", property(no_tuple))
    for path, digest in cases:
        assert main(["analyze", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_cli_construct_pn_variants(tmp_path):
    for name, m in (("pn", 15), ("pn@3", 15), ("golay24", 24), ("reed_muller", 16)):
        out = tmp_path / f"{name.replace('@', '_')}.code"
        assert main(["construct", name, "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == f"m={m}"


def test_cli_construct_unknown_name(tmp_path, capsys):
    assert main(["construct", "nope", "-o", str(tmp_path / "x")]) == 2
    assert "unknown code name" in capsys.readouterr().err


# int() reads these puncture positions as 10, 3, 3, 3 and 3; a position,
# like a length header, is ASCII digits only.
@pytest.mark.parametrize("name", ["pn@1_0", "pn@+3", "pn@ 3", "pn@3 ", "pn@\u0663"])
def test_cli_construct_takes_only_ascii_digit_positions(tmp_path, capsys, name):
    out = tmp_path / "x"
    assert main(["construct", name, "-o", str(out)]) == 2
    assert f"unknown code name {name!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_analyze_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("m=4\n0101\n011\n")
    assert main(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_analyze_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_bytes(b"m=4\n0101\n\xff\xfe01\n")
    code, out, err = _run_cli(["analyze", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_cli_maps_any_value_error_to_exit_2(tmp_path, capsys, monkeypatch):
    # A ValueError that no handler catches is mapped once, in main.
    def planted(code):
        raise ValueError("planted")

    path = tmp_path / "c.code"
    path.write_text("m=3\n000\n110\n")
    monkeypatch.setattr(cli, "distance_distribution", planted)
    assert _run_cli(["analyze", str(path)], capsys) == (2, "", "error: planted\n")


def test_cli_analyze_small_witness(tmp_path, capsys):
    path = tmp_path / "c.code"
    path.write_text("m=3\n000\n110\n")
    assert main(["analyze", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["completely_regular"] is False
    assert "witness" in doc


def test_cli_analyze_over_regularity_guard(tmp_path, capsys):
    # 40 random words at m=20: trivial kernel, so 2^20 * 40 pairs > 2^25
    words = random.Random(20).sample(range(1 << 20), 40)
    path = tmp_path / "big.code"
    write_code(Code(20, words), path)
    assert main(["analyze", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["completely_regular"] is None
    assert doc["regularity_note"].startswith("skipped")
    partition = distance_partition(Code(20, words))
    assert doc["covering_radius"] == str(partition.rho)
    assert doc["cell_sizes"] == [str(s) for s in partition.cell_sizes]


def test_cli_analyze_over_regularity_guard_with_a_kernel(tmp_path, capsys):
    # 64 random cosets of a random 4-dimensional span at m=24: the profile
    # scan needs 2^10 * 2^20 pairs > 2^25, and the distance partition
    # sweeps 2^20 coset minima, not 2^24 vertices
    rng = random.Random(24)
    subspace = span([rng.randrange(1 << 24) for _ in range(4)], 24).words_u32()
    shifts = np.array([rng.randrange(1 << 24) for _ in range(64)], dtype=np.uint32)
    code = Code(24, (subspace[None, :] ^ shifts[:, None]).ravel())
    assert code.size == 1024 and len(code.kernel) >= 4
    path = tmp_path / "big.code"
    write_code(code, path)
    tracemalloc.start()
    try:
        assert main(["analyze", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert doc["completely_regular"] is None
    assert doc["regularity_note"].startswith("skipped")
    partition = distance_partition(code)
    assert doc["covering_radius"] == str(partition.rho)
    assert doc["cell_sizes"] == [str(s) for s in partition.cell_sizes]
    assert sum(partition.cell_sizes) == 1 << 24 and partition.cell_sizes[0] == 1024
    for v in [rng.randrange(1 << 24) for _ in range(20)]:
        assert partition.distance(v) == brute_profile(code, v)[0]
    assert peak < 4 << 20


def test_cli_verify_pn(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "pn", "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert re.search(r"PASS\s+pn\.ct", out)
    doc = json.loads(report_path.read_text())
    assert doc["target"] == "pn"
    assert "pn_transitivity_certificate" in doc
    cert = doc["pn_transitivity_certificate"]
    assert len(cert["matched_cells"]) == 4
    assert all(line.startswith("beta=") for line in cert["generators"])


def test_cli_verify_unwritable_json_path(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(["verify", "pn", "--json", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_cli_verify_nr_reports_known_failure(capsys):
    code = main(["verify", "nr"])
    out = capsys.readouterr()
    assert code == 1
    assert "rm.cr" in out.err
    assert re.search(r"FAIL\s+rm\.cr", out.out)


def test_cli_verify_budget_exceeded(capsys):
    code = main(["verify", "pn", "--budget", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "node budget of 1" in err
    assert "Traceback" not in err


def test_cli_verify_budget_is_per_stage(capsys):
    # `verify nr` charges one node per image of NR to its one orbit walk,
    # which finds 8: 8 suffices (only the by-design failure rm.cr
    # remains), 7 does not.
    code, _, err = _run_cli(["verify", "nr", "--budget", "8"], capsys)
    assert code == 1 and err.endswith("failing claims: rm.cr\n")
    code, _, err = _run_cli(["verify", "nr", "--budget", "7"], capsys)
    assert code == 2 and "node budget of 7" in err


@pytest.mark.parametrize("value", ["abc", "-5", ""])
def test_cli_verify_bad_budget_variable(value, monkeypatch, capsys):
    monkeypatch.setenv("NRCODES_BUDGET", value)
    code = main(["verify", "pn"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: NRCODES_BUDGET must be a non-negative integer, got {value!r}" in err
    assert "Traceback" not in err


# int() reads each of "1_000", " 7 ", "+3" and "٣" (Arabic-Indic three)
# as a number; a budget, like a length header, is ASCII digits only.
@pytest.mark.parametrize("value", ["-1", "abc", "1_000", " 7 ", "+3", "\u0663"])
def test_cli_verify_bad_budget_option(value, capsys):
    code, _, err = _run_cli(["verify", "pn", "--budget", value], capsys)
    assert code == 2
    assert "argument --budget: node budget must be a non-negative integer" in err


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["verify", "all"],
    ["feasible", "-m", "16", "-t", "0=1,6=112,7=?,8=?,10=112,16=1", "--antipodal"],
])
def test_cli_closed_stdout_exits_quietly(argv, unbuffered):
    # `nrcodes verify all | head -1`: the reader goes away while the
    # command still has output to write.  Here it is gone before the first
    # line, so that the write fails on every run, not only when it loses
    # the race with the reader's exit.  Buffered, the output first reaches
    # the pipe when `main` flushes it; unbuffered, at the first `print`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nrcodes.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == cli.EXIT_CLOSED_OUTPUT


def test_cli_import_leaves_dataclasses_unloaded():
    # The result records are NamedTuples: `@dataclass` took 15-18 ms of the
    # import, which every command pays.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, nrcodes.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_benchmark_tracer_runs_verify_and_restores_every_name(capsys):
    # The benchmark's traced run patches names of the package from outside
    # (perfbench/tracer.py); one that a refactor deletes fails every such run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    main_before, order_before = cli.main, PermGroup.order
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        status = cli.main(["verify", "pn"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert status == 0
    assert tracer.summary(0.0, 0.0)["nodes_available"]
    assert {"cli.main", "symmetry.PermGroup.order"} <= {s[0] for s in tracer.spans}
    assert (cli.main, PermGroup.order) == (main_before, order_before)


def _imported_modules(path: Path) -> set[str]:
    """The first component, within the package, of each module that the
    file imports: `.spectrum`, `nrcodes.spectrum` and `from . import
    spectrum` all give "spectrum"."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return {n.removeprefix("nrcodes.").split(".")[0] for n in names}


def test_symmetry_and_spectrum_import_nothing_from_each_other():
    # The transitivity check is given the distance partition that the
    # regularity check computed, and no spectrum routine reads a group.
    src = Path(symmetry.__file__).parent
    assert "hamming" in _imported_modules(src / "symmetry.py")
    assert "spectrum" not in _imported_modules(src / "symmetry.py")
    assert "symmetry" not in _imported_modules(src / "spectrum.py")
    assert {"spectrum", "symmetry"} <= _imported_modules(src / "report.py")


def test_cli_feasible(capsys):
    args = [
        "feasible", "-m", "16",
        "-t", "0=1,6=112,7=?,8=?,10=112,16=1",
        "--antipodal",
    ]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solutions"] == [{"a7": "0", "a8": "30"}]
    rows = {r["k"]: r["row"] for r in doc["constraint_rows"]}
    assert rows["2"] == "240 - 12*a7 - 8*a8 >= 0"


def test_cli_feasible_pn(capsys):
    args = ["feasible", "-m", "15", "-t", "5=42,6=?,7=?,10=42,15=1", "--antipodal"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solutions"] == [{"a6": "70", "a7": "15"}]


# sha256 of `feasible`'s output on NR's and PN's templates: bounding the
# grid must leave every answer that fits within it byte-identical.
FEASIBLE_SHA256 = {
    "16": "330f378c37c519cc238bdaadf6166eafc98551911c7722b6b40233a0fc76f04a",
    "15": "dd048a79cf70c696a11d2bd3557ecdd2d6906ddd1f496f478f8291873fd3ded5",
}


@pytest.mark.parametrize("m, template", [
    ("16", "0=1,6=112,7=?,8=?,10=112,16=1"),
    ("15", "5=42,6=?,7=?,10=42,15=1"),
])
def test_cli_feasible_output_pinned(m, template, capsys):
    argv = ["feasible", "-m", m, "-t", template, "--antipodal"]
    code, out, _ = _run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FEASIBLE_SHA256[m]


def test_cli_feasible_antipodal_ties_entry_0s_default(capsys):
    # Entry 0 defaults to 1 and the tie sets a_16 = a_0, so NR's template
    # without its 0= and 16= entries is the pinned one.
    argv = ["feasible", "-m", "16", "-t", "6=112,7=?,8=?,10=112", "--antipodal"]
    code, out, _ = _run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FEASIBLE_SHA256["16"]


def test_cli_feasible_grid_too_large_exits_at_once(capsys):
    # Propagation bounds the three unknowns by 2762, 4952 and 2762, a grid
    # of 3.78e10 points: the estimate is refused before the first one.
    start = time.perf_counter()
    argv = ["feasible", "-m", "24", "-t", "0=1,8=?,12=?,16=?,24=1"]
    code, out, err = _run_cli(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: feasibility grid has 37812039057 points, above the limit of 262144\n"
    )


def test_cli_feasible_bad_template(capsys):
    assert main(["feasible", "-m", "4", "-t", "9=1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_feasible_repeated_template_index(capsys):
    # a second value for one index is an input error, not a silent overwrite
    argv = ["feasible", "-m", "16", "-t", "6=112,6=5,7=?,8=?,16=1", "--antipodal"]
    code, out, err = _run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "error: template index 6 given twice\n")


# int() reads "-5" as a (negative) count, "+3" and "٣" (Arabic-Indic
# three) as index 3 and "1_2" as 12; template entries are ASCII digits.
@pytest.mark.parametrize("template", ["3=-5", "+3=?", "\u0663=?", "2=1_2"])
def test_cli_feasible_template_takes_only_ascii_digits(template, capsys):
    code, out, err = _run_cli(["feasible", "-m", "4", "-t", template], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: template ") and "ASCII digits" in err


@pytest.mark.parametrize("m", [-1, 0, 25])
def test_cli_feasible_length_out_of_range(m, capsys):
    code, _, err = _run_cli(["feasible", "-m", str(m), "-t", ""], capsys)
    assert code == 2
    if m < 0:
        assert err == "error: length must be ASCII digits, got '-1'\n"
    else:
        assert err == f"error: length must be in [1, 24], got {m}\n"


# int() reads each of these as 16; a length, like a length header, is
# ASCII digits only.
@pytest.mark.parametrize("m", ["1_6", "+16", " 16", "\u0661\u0666"])
def test_cli_feasible_length_takes_only_ascii_digits(m, capsys):
    code, out, err = _run_cli(["feasible", "-m", m, "-t", "0=1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: length must be ASCII digits, got {m!r}\n"


def _run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_parser_built_once_and_reusable(tmp_path, capsys):
    path = tmp_path / "nr.code"
    assert main(["construct", "nr", "-o", str(path)]) == 0
    commands = [
        ["analyze", str(path)],
        ["feasible", "-m", "15", "-t", "5=42,6=?,7=?,10=42,15=1", "--antipodal"],
        ["bogus"],
    ]
    alone = []
    for argv in commands:
        build_parser.cache_clear()
        alone.append(_run_cli(argv, capsys))
    build_parser.cache_clear()
    in_sequence = [_run_cli(argv, capsys) for argv in commands]
    assert build_parser.cache_info().misses == 1
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 2]
    assert "invalid choice: 'bogus'" in alone[2][2]


def test_cli_runs_the_handler_bound_at_call_time(monkeypatch):
    build_parser()  # the cached parser exists before the rebinding
    monkeypatch.setattr(cli, "cmd_feasible", lambda args: 7)
    assert main(["feasible", "-m", "4", "-t", "0=1"]) == 7
