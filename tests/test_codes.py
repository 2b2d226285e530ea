import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrcodes import codes
from nrcodes.codes import (
    Code,
    CodeFileError,
    code_predicates,
    coset_decomposition,
    coset_leaders,
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
    translate,
    write_code,
)
from nrcodes.hamming import permute_bits
from nrcodes.spectrum import distance_distribution
from oracles import brute_coset_leaders, brute_distance_counts, brute_is_linear

JSTAR_MASK = (1 << 8) - 1

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
    decomp = coset_decomposition(golay)
    assert decomp.D.size == 32
    assert 0 in decomp.D
    assert all(w & JSTAR_MASK == 0 for w in decomp.D.words)
    for i, rep in enumerate(decomp.reps, start=1):
        assert rep & JSTAR_MASK == (1 << (i - 1)) | (1 << 7)
    cosets = decomp.cosets()
    assert len(cosets) == 8
    all_words = [w for c in cosets for w in c]
    assert len(set(all_words)) == 8 * 32  # pairwise disjoint


def test_projection():
    c = Code(3, [0b000, 0b111])
    assert project(c, [1, 2, 3]) == c
    assert project(c, [1, 2]).words == (0b00, 0b11)
    with pytest.raises(ValueError):
        project(c, [])
    with pytest.raises(ValueError):
        project(c, [0, 1])


def test_projection_of_d_is_injective(golay):
    decomp = coset_decomposition(golay)
    assert project(decomp.D, range(9, 25)).size == 32


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
    decomp = coset_decomposition(golay)
    words = set(rm.words)
    for rep in decomp.reps:
        words.update(w ^ (rep >> 8) for w in rm.words)
    assert tuple(sorted(words)) == nr.words


def test_nr_independent_of_representative_choice(nr, golay):
    # the construction pins the least qualifying word; any qualifying word
    # gives the same projected union
    decomp = coset_decomposition(golay)
    words = [w >> 8 for w in decomp.D.words]
    for i in range(1, 8):
        pattern = (1 << (i - 1)) | (1 << 7)
        candidates = [w for w in golay.words if w & JSTAR_MASK == pattern]
        second = candidates[1]
        words.extend((second ^ w) >> 8 for w in decomp.D.words)
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
    assert distance_distribution(code).pair_counts == counts
    nonzero = [k for k, c in enumerate(counts) if k and c]
    assert code.min_distance == (min(nonzero) if nonzero else None)
    assert is_linear(code) == brute_is_linear(code)
    assert coset_leaders(code).tolist() == brute_coset_leaders(code)


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
