"""Construction and verification workbench for the Nordstrom-Robinson codes."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .codes import (
    Code,
    code_predicates,
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
    affine_stabilizer,
    orbits_on_sphere,
    verify_complete_transitivity,
)

# The names imported above; the submodules bound as a side effect stay out.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
