import pytest

from nrcodes import (
    golay24,
    nordstrom_robinson,
    puncture,
    reed_muller_subcode,
)
from nrcodes.symmetry import (
    AutElement,
    affine_stabilizer,
    drop_coordinate_0,
    punctured_perm_group,
)


@pytest.fixture(scope="session")
def golay():
    return golay24()


@pytest.fixture(scope="session")
def nr():
    return nordstrom_robinson()


@pytest.fixture(scope="session")
def rm():
    return reed_muller_subcode()


@pytest.fixture(scope="session")
def pn():
    return puncture(nordstrom_robinson(), 1)


@pytest.fixture(scope="session")
def nr_affine(nr):
    return affine_stabilizer(nr)


@pytest.fixture(scope="session")
def nr_perm_group(nr_affine):
    return nr_affine[0]


@pytest.fixture(scope="session")
def pn_perm_group(nr, pn, nr_perm_group):
    return punctured_perm_group(pn, nr, nr_perm_group)


def stabilizer_generators(code, group, mover):
    """The generators of `group`, a basis of the code's translation kernel
    and `mover`, as permutations, translations and one automorphism."""
    return (
        [AutElement.permutation(code.m, g) for g in group.generators]
        + [AutElement.translation(code.m, b) for b in code.kernel]
        + [mover]
    )


@pytest.fixture(scope="session")
def nr_generators(nr, nr_perm_group, nr_affine):
    return stabilizer_generators(nr, nr_perm_group, nr_affine[1][0])


@pytest.fixture(scope="session")
def pn_generators(pn, pn_perm_group, nr_affine):
    return stabilizer_generators(pn, pn_perm_group, drop_coordinate_0(nr_affine[1][0]))
