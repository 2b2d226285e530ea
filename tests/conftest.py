import pytest

from nrcodes import (
    golay24,
    nordstrom_robinson,
    puncture,
    reed_muller_subcode,
)
from nrcodes.symmetry import (
    affine_stabilizer,
    assemble_aut_generators,
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


@pytest.fixture(scope="session")
def nr_generators(nr, nr_perm_group, nr_affine):
    return assemble_aut_generators(nr, nr_perm_group, nr_affine[1])


@pytest.fixture(scope="session")
def pn_generators(pn, pn_perm_group, nr_affine):
    movers = [drop_coordinate_0(x) for x in nr_affine[1]]
    return assemble_aut_generators(pn, pn_perm_group, movers)
