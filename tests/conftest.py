import pytest

from nrcodes import (
    golay24,
    nordstrom_robinson,
    puncture,
    reed_muller_subcode,
)
from nrcodes.symmetry import assemble_aut_generators, enumerate_perm_automorphisms


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
def nr_perm_group(nr):
    return enumerate_perm_automorphisms(nr)


@pytest.fixture(scope="session")
def pn_perm_group(pn):
    return enumerate_perm_automorphisms(pn)


@pytest.fixture(scope="session")
def nr_generators(nr, nr_perm_group):
    return assemble_aut_generators(nr, nr_perm_group)


@pytest.fixture(scope="session")
def pn_generators(pn, pn_perm_group):
    return assemble_aut_generators(pn, pn_perm_group)
