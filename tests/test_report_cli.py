import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from nrcodes import cli
from nrcodes import report as report_module
from nrcodes import symmetry
from nrcodes.cli import build_parser, main
from nrcodes.codes import Code, write_code
from nrcodes.report import (
    Workbench,
    build_manifest,
    fmt,
    run_verification,
    transitivity_certificate,
)
from nrcodes.spectrum import distance_partition
from nrcodes.symmetry import PermGroup


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
# (weights 1, 2, 3 and 4 for NR, 3 for PN) and once per transitivity check,
# with no distance partition; the four codes with a regularity claim are
# checked once each.
STAGE_CALLS = {
    "_orbit_labels": 7,
    "distance_partition": 0,
    "translation_kernel": 2,
    "completely_regular_check": 4,
    "enumerate_perm_automorphisms": 2,
}


def count_calls(monkeypatch, names) -> dict[str, int]:
    """Count the calls of each named function of `report` and `symmetry`."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (report_module, symmetry):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_verify_all_builds_each_stage_once(monkeypatch):
    calls = count_calls(monkeypatch, STAGE_CALLS)
    run_verification("all")
    assert calls == STAGE_CALLS


def test_verify_all_search_work_pinned(monkeypatch):
    # Per `verify all`: generator assembly makes 7 word-mover searches per
    # code, each on its own incidence; the stabilizer chains of NR and PN
    # build one incidence each and descend from their level partitions to
    # 23 candidate images without a search call; the puncture claim reads
    # NR's Sims table and searches nothing.
    calls = count_calls(monkeypatch, ["_search_permutation", "_Incidence"])
    run_verification("all")
    assert calls == {"_search_permutation": 14, "_Incidence": 16}


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
        for entry in report.entries:
            entry.wall_time = "0"
    assert a.to_json() == b.to_json()
    assert hashlib.sha256(c.to_json().encode()).hexdigest() == REPORT_ALL_SHA256


# sha256 of each transitivity certificate as `json.dumps(cert, sort_keys=True)`:
# the searches must return exactly these generators and orbit sizes.
CERTIFICATE_SHA256 = {
    "nr": "49ab1824ff4992aca73f837c66c37be0aff91fec07f55de7fb5a1bd4748f849b",
    "pn": "29275338ad6557678e44f7a8f0afb2193c5256f4617d1be3721e7c573cc8fad7",
}


def test_transitivity_certificates_pinned():
    wb = Workbench()
    for which, digest in CERTIFICATE_SHA256.items():
        cert = json.dumps(transitivity_certificate(wb, which), sort_keys=True)
        assert hashlib.sha256(cert.encode()).hexdigest() == digest


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


def test_cli_construct_pn_variants(tmp_path):
    for name, m in (("pn", 15), ("pn@3", 15), ("golay24", 24), ("reed_muller", 16)):
        out = tmp_path / f"{name.replace('@', '_')}.code"
        assert main(["construct", name, "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == f"m={m}"


def test_cli_construct_unknown_name(tmp_path, capsys):
    assert main(["construct", "nope", "-o", str(tmp_path / "x")]) == 2
    assert "unknown code name" in capsys.readouterr().err


def test_cli_analyze_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("m=4\n0101\n011\n")
    assert main(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


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
    # `verify nr` charges 26 nodes to NR's stabilizer enumeration and 28 to
    # its generator assembly, each stage against a budget of its own: 28
    # suffices (only the by-design failure rm.cr remains), 27 does not.
    code, _, err = _run_cli(["verify", "nr", "--budget", "28"], capsys)
    assert code == 1 and err.endswith("failing claims: rm.cr\n")
    code, _, err = _run_cli(["verify", "nr", "--budget", "27"], capsys)
    assert code == 2 and "node budget of 27" in err


@pytest.mark.parametrize("value", ["abc", "-5", ""])
def test_cli_verify_bad_budget_variable(value, monkeypatch, capsys):
    monkeypatch.setenv("NRCODES_BUDGET", value)
    code = main(["verify", "pn"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: NRCODES_BUDGET must be a non-negative integer, got {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_cli_verify_bad_budget_option(value, capsys):
    code, _, err = _run_cli(["verify", "pn", "--budget", value], capsys)
    assert code == 2
    assert "argument --budget: node budget must be a non-negative integer" in err


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


def test_cli_feasible_bad_template(capsys):
    assert main(["feasible", "-m", "4", "-t", "9=1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("m", [-1, 0, 25])
def test_cli_feasible_length_out_of_range(m, capsys):
    code, _, err = _run_cli(["feasible", "-m", str(m), "-t", ""], capsys)
    assert code == 2
    assert err == f"error: length must be in [1, 24], got {m}\n"


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
