"""Seeded inputs for the workloads, generated before anything is timed.

`verify` has no input: it runs the built-in claim manifest.  `analyze`
gets code files, each an image of a base code under a random coordinate
permutation sigma and, for the small codes, a random translation beta.
The mix is fixed and only the labellings come from the seed, because each
family's cost does not depend on the labelling (see README.md).
"""

from __future__ import annotations

import random
from pathlib import Path

# (family, ops, translated).  Sorted by op latency the families fall in
# this order; 30 ops below the NR family and 30 above it put the median
# inside NR, and 16 Golay ops put the p90 (10 ops beyond it) inside m=24.
ANALYZE_MIX = (
    ("rm", 10, True),    # [16,5,8] subcode: dense route, failing witness
    ("pn", 20, True),    # (15,256,5): dense route
    ("nr", 40, True),    # (16,256,6): dense route
    ("g23", 14, False),  # punctured Golay [23,12,7]: linear coset route
    ("g24", 16, False),  # Golay [24,12,8]: linear coset route
)


def base_codes(nrcodes) -> dict[str, tuple[int, tuple[int, ...]]]:
    nr, golay = nrcodes.nordstrom_robinson(), nrcodes.golay24()
    codes = {
        "rm": nrcodes.reed_muller_subcode(),
        "pn": nrcodes.puncture(nr, 1),
        "nr": nr,
        "g23": nrcodes.puncture(golay, 1),
        "g24": golay,
    }
    return {name: (c.m, c.words) for name, c in codes.items()}


def permute(v: int, sigma) -> int:
    """Move the bit of coordinate j to coordinate sigma[j]."""
    out = 0
    for j, s in enumerate(sigma):
        out |= ((v >> j) & 1) << s
    return out


def write_code_file(path: Path, m: int, words) -> None:
    # coordinate 1 is the leftmost character and bit 0 of the word
    lines = [f"m={m}"] + ["".join("1" if (w >> i) & 1 else "0" for i in range(m))
                          for w in sorted(words)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def analyze_inputs(nrcodes, seed: int, work: Path) -> list[dict]:
    rng = random.Random(seed)
    bases = base_codes(nrcodes)
    specs = [(family, translated) for family, count, translated in ANALYZE_MIX
             for _ in range(count)]
    rng.shuffle(specs)
    inputs = []
    for idx, (family, translated) in enumerate(specs):
        m, words = bases[family]
        sigma = list(range(m))
        rng.shuffle(sigma)
        beta = rng.getrandbits(m) if translated else 0
        image = [permute(w ^ beta, sigma) for w in words]
        name = f"code-{idx:03d}-{family}.txt"
        write_code_file(work / name, m, image)
        inputs.append({"file": name, "family": family, "m": m,
                       "beta": beta, "sigma": sigma, "words": sorted(image)})
    return inputs
