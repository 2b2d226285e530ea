import ast
import hashlib
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrcodes
import oracles
from conftest import TimeLimitExceeded, time_limit
from nrcodes import codes
from nrcodes.codes import (
    Code,
    CodeFileError,
    ConstructionError,
    code_predicates,
    golay24,
    free_coordinates,
    is_linear,
    kernel_basis,
    nordstrom_robinson,
    project,
    puncture,
    punctured_nr,
    read_code,
    reduce_mod,
    reed_muller_subcode,
    span,
    write_code,
)
from nrcodes.hamming import permute_bits
from nrcodes.spectrum import distance_distribution
from oracles import (
    brute_coset_leaders,
    brute_distance_counts,
    brute_is_linear,
    translate,
)

JSTAR_MASK = (1 << 8) - 1
# The support patterns {i, 8}, i = 1..7, on coordinates 1..8 (bits 0..7).
PINNED = [(1 << (i - 1)) | (1 << 7) for i in range(1, 8)]


def pattern_class(golay, pattern):
    """The Golay words whose support meets coordinates 1..8 in `pattern`."""
    return [w for w in golay.words if w & JSTAR_MASK == pattern]

# sha256 of the comma-joined Golay words.  Every later claim is stated in
# this coordinate labelling, so a refactor must keep it.
GOLAY_WORDS_SHA256 = "ba686935ba26b8da7808098782fee00d4f8c481366c4796294f4f3fb7592c883"


def test_golay_parameters(golay):
    assert golay.m == 24
    assert golay.size == 4096
    assert golay.min_distance == 8
    assert 0 in golay
    assert (1 << 8) - 1 in golay  # the all-ones prefix word
    hist = golay.weight_histogram
    assert (hist[8], hist[12], hist[16]) == (759, 2576, 759)
    assert hist[0] == hist[24] == 1
    assert sum(hist) == 4096


def test_golay_is_linear(golay):
    assert is_linear(golay)
    assert len(golay.kernel) == 12


def test_golay_construction_deterministic():
    a = golay24.__wrapped__()
    b = golay24.__wrapped__()
    assert a.words == b.words
    digest = hashlib.sha256(",".join(map(str, a.words)).encode()).hexdigest()
    assert digest == GOLAY_WORDS_SHA256


def test_coset_decomposition(golay):
    # D holds the Golay words with pattern 0 on coordinates 1..8; each
    # pattern {i, 8} holds the coset D + rep_i, rep_i its least word.
    D = pattern_class(golay, 0)
    assert len(D) == 32
    assert 0 in D
    cosets = [D]
    for pattern in PINNED:
        words = pattern_class(golay, pattern)
        assert len(words) == 32
        assert sorted(w ^ words[0] for w in D) == words
        cosets.append(words)
    all_words = [w for c in cosets for w in c]
    assert len(set(all_words)) == 8 * 32  # pairwise disjoint


def test_nr_construction_fails_without_a_pinned_pattern(golay, monkeypatch):
    # 256 words need all eight patterns; the size postcondition is the
    # check that notices a missing one.
    for pattern in (0, *PINNED):
        missing = Code(24, [w for w in golay.words if w & JSTAR_MASK != pattern])
        assert missing.size == 4096 - 32
        monkeypatch.setattr(codes, "golay24", lambda: missing)
        with pytest.raises(ConstructionError, match="postconditions"):
            nordstrom_robinson.__wrapped__()


def test_rm_construction_fails_without_pattern_zero(golay, monkeypatch):
    # RM(1,4) is the one pattern 0; without its 32 words nothing is left
    # to project, and the construction must say so in its own error type.
    missing = Code(24, [w for w in golay.words if w & JSTAR_MASK != 0])
    assert missing.size == 4096 - 32
    monkeypatch.setattr(codes, "golay24", lambda: missing)
    with pytest.raises(ConstructionError, match="pinned pattern"):
        reed_muller_subcode.__wrapped__()


def test_projection():
    c = Code(3, [0b000, 0b111])
    assert project(c, [1, 2, 3]) == c
    assert project(c, [1, 2]).words == (0b00, 0b11)
    with pytest.raises(ValueError):
        project(c, [])
    with pytest.raises(ValueError):
        project(c, [0, 1])


def test_projection_of_d_is_injective(golay, rm):
    projected = project(Code(24, pattern_class(golay, 0)), range(9, 25))
    assert projected.size == 32
    assert projected == rm


def test_nordstrom_robinson(nr):
    assert (nr.m, nr.size, nr.min_distance) == (16, 256, 6)
    assert all(w.bit_count() % 2 == 0 for w in nr.words)
    hist = nr.weight_histogram
    assert hist[6] == 112 and hist[8] == 30 and hist[10] == 112
    assert 0 in nr


def test_nr_construction_deterministic():
    a = nordstrom_robinson.__wrapped__()
    b = nordstrom_robinson.__wrapped__()
    assert a.words == b.words


def test_nr_is_union_of_kernel_cosets(nr, rm, golay):
    words = set(rm.words)
    for pattern in PINNED:
        rep = pattern_class(golay, pattern)[0]
        words.update(w ^ (rep >> 8) for w in rm.words)
    assert tuple(sorted(words)) == nr.words


def test_nr_independent_of_representative_choice(nr, golay):
    # the coset D + rep_i is the same for any qualifying word rep_i, so the
    # second qualifying word gives the same projected union as the least
    D = pattern_class(golay, 0)
    words = [w >> 8 for w in D]
    for pattern in PINNED:
        second = pattern_class(golay, pattern)[1]
        words.extend((second ^ w) >> 8 for w in D)
    assert tuple(sorted(set(words))) == nr.words


def test_reed_muller_subcode(nr, rm):
    assert (rm.m, rm.size, rm.min_distance) == (16, 32, 8)
    assert is_linear(rm)
    assert all(w in nr for w in rm.words)
    for a in rm.words:
        for b in rm.words:
            assert (a ^ b) in rm


def test_puncture(nr):
    pn = puncture(nr, 1)
    assert (pn.m, pn.size, pn.min_distance) == (15, 256, 5)
    assert pn.weight_histogram[5] == 42
    assert puncture(Code(2, [0b00, 0b11]), 1).words == (0, 1)
    with pytest.raises(ValueError):
        puncture(nr, 17)
    assert punctured_nr(1) == pn


def test_translate(nr, rm):
    c = Code(3, [0b000, 0b011])
    assert translate(c, 0) == c
    lin = span([0b011, 0b101], 3)
    for w in lin.words:
        assert translate(lin, w) == lin
    beta = next(w for w in nr.words if w not in rm and w != 0)
    assert translate(nr, beta) != nr
    with pytest.raises(ValueError):
        translate(c, 1 << 5)


def test_code_predicates(nr):
    preds = code_predicates(nr)
    assert preds.is_antipodal
    assert not preds.is_linear
    assert preds.is_even
    small = code_predicates(Code(3, [0b000, 0b011]))
    assert not small.is_antipodal
    rep = code_predicates(Code(3, [0b000, 0b111]))
    assert rep.is_antipodal and rep.is_linear


def test_code_basics():
    c = Code(4, [3, 5, 3, 0])  # duplicates collapse
    assert c.words == (0, 3, 5)
    assert len(c) == 3
    assert 5 in c and 6 not in c
    assert c.min_distance == 2
    assert Code(4, [7]).min_distance is None
    with pytest.raises(ValueError):
        Code(3, [])
    with pytest.raises(ValueError):
        Code(3, [9])
    assert Code(3, range(8)) == span([1, 2, 4], 3)


@st.composite
def handed_words(draw):
    """m <= 10, some words, and the same words with duplicates, shuffled."""
    m = draw(st.integers(1, 10))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=30))
    extra = draw(st.lists(st.sampled_from(words), max_size=10))
    return m, words, draw(st.permutations(words + extra))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(handed_words())
def test_code_is_one_array_however_its_words_are_handed_in(case):
    m, words, handed = case
    expected = tuple(sorted(set(words)))
    forms = [
        list(handed),
        tuple(handed),
        (w for w in handed),
        np.array(handed, dtype=np.uint32),
        np.array(handed, dtype=np.int64),
        np.array(handed, dtype=np.uint64),
    ]
    built = [Code(m, form) for form in forms]
    for code in built:
        assert code.words == expected
        assert code.words_u32().dtype == np.uint32
        assert code.words_u32().tolist() == list(expected)
        assert code == built[0] and hash(code) == hash(built[0])
    for dtype in (np.uint32, np.int64):
        arr = np.array(handed, dtype=dtype)
        code = Code(m, arr)
        arr ^= 1
        assert code.words_u32().tolist() == list(expected)
    for bad in (
        [],
        np.array([], dtype=np.uint32),
        handed + [-1],
        np.array(handed + [-1], dtype=np.int64),
        handed + [1 << m],
        np.array(handed + [1 << m], dtype=np.uint64),
        handed + [1 << 64],
        np.array(handed, dtype=np.float64),
    ):
        with pytest.raises(ValueError):
            Code(m, bad)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(handed_words())
def test_membership_searches_the_word_array(case):
    # `in` and `isin` against a set of the words, on every vertex and on
    # values that fit in no m coordinates
    m, words, _ = case
    code, members = Code(m, words), set(words)
    for v in [-1, *range(1 << m), 1 << m, 1 << 40, np.uint32(1)]:
        assert (v in code) == (v in members)
    everything = np.arange(1 << m, dtype=np.uint32)
    assert code.isin(everything).tolist() == [v in members for v in range(1 << m)]
    assert not hasattr(code, "_member")


def test_code_file_round_trip(tmp_path, nr):
    path = tmp_path / "nr.code"
    write_code(nr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m=16"
    assert len(lines) == 257
    assert read_code(path) == nr


@pytest.mark.parametrize("header", ["m=1_6", "m=+16", "m=\u0661\u0666"])
def test_code_file_reader_takes_only_ascii_digit_lengths(tmp_path, header):
    # int() reads each of these headers as 16; word lines allow no such
    # spellings either.
    path = tmp_path / "c.code"
    path.write_text(f"{header}\n{'0' * 16}\n", encoding="utf-8")
    with pytest.raises(CodeFileError, match="ASCII digits"):
        read_code(path)
    path.write_text(f"m=16\n{'0' * 16}\n", encoding="utf-8")
    assert read_code(path) == Code(16, [0])


def test_code_file_reader_accepts_any_order(tmp_path):
    path = tmp_path / "c.code"
    path.write_text("m=3\n110\n000\n110\n")
    code = read_code(path)
    assert code.words == (0, 0b011)


@pytest.mark.parametrize(
    "content",
    [
        "110\n000\n",  # missing header
        "m=3\n11\n",  # wrong length
        "m=3\n11x\n",  # bad character
        "m=0\n",  # bad length
        "m=3\n",  # no words
    ],
)
def test_code_file_reader_rejects(tmp_path, content):
    path = tmp_path / "bad.code"
    path.write_text(content)
    with pytest.raises(CodeFileError):
        read_code(path)


# Characters that int() or str.isdigit() accept in a number, and an inner
# space; one of them may replace one character of one word line.
FOREIGN_CHARACTERS = ["2", "_", "+", " ", "\u0661", "\uff10"]


@st.composite
def code_file_texts(draw):
    """The text of a code file for a random code, m in 1..24: blank lines,
    spaces or tabs around lines, "\n" or "\r\n" endings, and at most one
    corruption, a short or long word line or a foreign character."""
    m = draw(st.integers(1, 24))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12))
    rows = ["".join(str(w >> t & 1) for t in range(m)) for w in words]
    kinds = [None] * 4 + ["short", "long"] + FOREIGN_CHARACTERS
    corruption = draw(st.sampled_from(kinds))
    if corruption is not None:
        i = draw(st.integers(0, len(rows) - 1))
        if corruption == "short":
            rows[i] = rows[i][:-1]
        elif corruption == "long":
            rows[i] += draw(st.sampled_from("01"))
        else:
            t = draw(st.integers(0, m - 1))
            rows[i] = rows[i][:t] + corruption + rows[i][t + 1 :]
    pad = st.sampled_from(["", "", " ", "\t", " \t "])
    lines = []
    for row in [f"m={m}"] + rows:
        lines += [draw(pad)] * draw(st.integers(0, 1))
        lines.append(draw(pad) + row + draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end * draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(code_file_texts())
def test_read_code_matches_the_line_by_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("code") / "c.code"
    path.write_bytes(text.encode("utf-8"))
    expected = oracles.plain_read_code(text)
    if isinstance(expected, Code):
        assert read_code(path) == expected
    else:
        with pytest.raises(CodeFileError) as err:
            read_code(path)
        assert str(err.value) == expected


@pytest.mark.parametrize(
    "content, message",
    [
        ("m=3\n000\n1x1\n11\n", "invalid character 'x' in vertex string"),
        ("m=3\n000\n11\n1x1\n", "word '11' does not have length 3"),
        ("m=3\n000\n1x10\n", "word '1x10' does not have length 3"),
    ],
)
def test_code_file_reader_names_the_first_bad_line(tmp_path, content, message):
    # files with two faults, which the random files above never hold: the
    # first bad line is named, and a wrong length before a bad character
    path = tmp_path / "bad.code"
    path.write_text(content)
    assert oracles.plain_read_code(content) == message
    with pytest.raises(CodeFileError) as err:
        read_code(path)
    assert str(err.value) == message


def golay_image_file(golay, path) -> Code:
    """Write the Golay code under a fixed coordinate permutation; return it."""
    sigma = list(range(24))
    random.Random(24).shuffle(sigma)
    image = Code(24, permute_bits(golay.words_u32(), sigma).tolist())
    write_code(image, path)
    return image


def test_read_code_parses_no_word_alone(golay, tmp_path, monkeypatch):
    # A valid file is checked and converted as one array; the per-word
    # parser is reached only to name a bad line.
    path = tmp_path / "g24.code"
    image = golay_image_file(golay, path)

    def no_parse(*args):
        raise AssertionError("a word was parsed on its own")

    monkeypatch.setattr(codes, "from_string", no_parse)
    assert read_code(path) == image


def test_read_code_memory_peak(golay, tmp_path):
    # A 4096-word m = 24 file (100 KB) peaks at about 0.7 MB (698 263 bytes
    # under tracemalloc, numpy 2.4); an int64 bit matrix for the conversion
    # alone would take 0.8 MB.
    path = tmp_path / "g24.code"
    golay_image_file(golay, path)
    read_code(path)
    tracemalloc.start()
    try:
        read_code(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_word_array_is_built_once_and_read_only():
    code = Code(5, [3, 17, 9])
    arr = code.words_u32()
    assert code.words_u32() is arr
    assert arr.dtype == np.uint32 and arr.tolist() == [3, 9, 17]
    with pytest.raises(ValueError):
        arr[0] = 1


@st.composite
def pair_scan_codes(draw):
    """Random codes, translated spans, unions of cosets of a random
    subspace (a nontrivial translation kernel) and one-word codes, m <= 10."""
    m = draw(st.integers(1, 10))
    word = st.integers(0, (1 << m) - 1)
    kind = draw(st.sampled_from(["random", "span", "cosets", "single"]))
    if kind == "random":
        return Code(m, draw(st.lists(word, min_size=1, max_size=40)))
    if kind == "single":
        return Code(m, [draw(word)])
    subspace = span(draw(st.lists(word, min_size=1, max_size=m)), m).words
    if kind == "span":
        beta = draw(word)
        return Code(m, [v ^ beta for v in subspace])
    reps = draw(st.lists(word, min_size=1, max_size=6))
    return Code(m, [v ^ r for r in reps for v in subspace])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair_scan_codes())
def test_pair_counts_match_all_pairs_oracle(code):
    counts = brute_distance_counts(code)
    assert code.distance_counts == counts
    assert distance_distribution(code) == tuple(Fraction(c, code.size) for c in counts)
    nonzero = [k for k, c in enumerate(counts) if k and c]
    assert code.min_distance == (min(nonzero) if nonzero else None)
    assert is_linear(code) == brute_is_linear(code)
    assert code.coset_leaders.tolist() == brute_coset_leaders(code)


def check_scans_against_oracles(code):
    assert code.weight_histogram == oracles.brute_weight_histogram(code)
    preds = code_predicates(code)
    assert preds.is_even == oracles.brute_is_even(code)
    assert preds.is_antipodal == oracles.brute_is_antipodal(code)
    assert preds.is_linear == brute_is_linear(code)
    assert list(span(kernel_basis(code), code.m).words) == oracles.brute_kernel(code)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair_scan_codes())
def test_array_scans_match_oracles(code):
    check_scans_against_oracles(code)


FULL24 = (1 << 24) - 1


@pytest.mark.parametrize(
    "words",
    [
        [0, 5, 1 << 23, (1 << 23) | 5],  # a subspace through bit 23
        [w ^ c for w in (0, 0x123456, 0xF0F0F0) for c in (0, FULL24)],
        [1, 6, 1 << 23, 0xABCDEF, FULL24],  # no zero word
        [0xABCDEF],
    ],
    ids=["bit23-subspace", "complement-closed", "no-zero", "one-word"],
)
def test_array_scans_match_oracles_at_length_24(words):
    check_scans_against_oracles(Code(24, words))


def test_code_construction_runs_no_pair_scan(monkeypatch):
    class Scanned(Exception):
        pass

    def no_scan(*args):
        raise Scanned

    monkeypatch.setattr(codes, "distance_profiles", no_scan)
    words = random.Random(24).sample(range(1 << 24), 3000)
    code = Code(24, words)
    assert code.size == 3000
    assert repr(code) == "Code(m=24, size=3000)"
    with pytest.raises(Scanned):
        code.min_distance


@st.composite
def spans(draw):
    """A random subspace of F_2^m, m <= 10, spanned by up to m + 2 words."""
    m = draw(st.integers(1, 10))
    return span(draw(st.lists(st.integers(0, (1 << m) - 1), max_size=m + 2)), m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spans())
def test_quotient_helpers_match_coset_minima(subspace):
    m, basis = subspace.m, kernel_basis(subspace)
    vectors = np.arange(1 << m, dtype=np.uint32)
    minima = (vectors[:, None] ^ subspace.words_u32()[None, :]).min(axis=1).tolist()
    assert [reduce_mod(v, basis) for v in range(1 << m)] == minima
    reduced = reduce_mod(vectors, basis)
    assert reduced.dtype == np.uint32 and reduced.tolist() == minima
    free = free_coordinates(basis, m)
    assert [permute_bits(i, free) for i in range(2 ** len(free))] == sorted(set(minima))


def test_package_exports_no_module():
    # `from nrcodes import *` binds the public functions and classes only
    modules = [n for n in nrcodes.__all__ if isinstance(getattr(nrcodes, n), ModuleType)]
    assert modules == []


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's exports changes its API
    assert nrcodes.__all__ == [
        "AutElement", "Code", "PermGroup", "affine_stabilizer",
        "code_predicates", "completely_regular_check", "design_arithmetic",
        "design_check", "distance_distribution", "distance_partition",
        "feasible_distributions", "golay24", "krawtchouk", "lambda_upper_bound",
        "macwilliams_transform", "nordstrom_robinson", "orbits_on_sphere",
        "project", "puncture", "punctured_nr", "read_code",
        "reed_muller_subcode", "verify_complete_transitivity",
        "write_code",
    ]


def test_a_test_that_spins_fails_at_its_time_limit():
    # Tier-1 fails a test that hangs instead of waiting for it (conftest).
    with pytest.raises(TimeLimitExceeded, match="time limit of 0.2 s"):
        with time_limit(0.2):
            while True:
                pass


def test_oracles_import_only_code_from_the_package():
    # The oracles recompute from the definitions; a package helper shared
    # with the code they check could hide the same fault on both sides.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", alias.name) for alias in node.names}
    package = {(module, name) for module, name in imported
               if module == "nrcodes" or module.startswith("nrcodes.")}
    assert package == {("nrcodes.codes", "Code")}
