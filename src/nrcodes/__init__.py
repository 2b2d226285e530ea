"""Construction and verification workbench for the Nordstrom-Robinson codes."""

__version__ = "0.1.0"

from .codes import (
    Code,
    code_predicates,
    coset_decomposition,
    golay24,
    nordstrom_robinson,
    puncture,
    punctured_nr,
    project,
    read_code,
    reed_muller_subcode,
    translate,
    write_code,
)
from .hamming import krawtchouk, sphere
from .spectrum import (
    completely_regular_check,
    design_arithmetic,
    design_check,
    distance_distribution,
    distance_partition,
    feasible_distributions,
    lambda_upper_bound,
    macwilliams_transform,
)
from .symmetry import (
    AutElement,
    PermGroup,
    assemble_aut_generators,
    enumerate_perm_automorphisms,
    orbits_on_sphere,
    translation_kernel,
    verify_complete_transitivity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
