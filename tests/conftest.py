import gc

import pytest

from gradedca.modules import FreeModule, GradedModule
from gradedca.poly import CoeffField, PolyRing


@pytest.fixture
def no_cyclic_gc():
    """The cyclic collector off for one test, so that only reference
    counting frees what the test drops."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture(scope="session")
def ring2():
    return PolyRing(CoeffField(32003), ["x", "y"])


@pytest.fixture(scope="session")
def ring3():
    return PolyRing(CoeffField(32003), ["x", "y", "z"])


@pytest.fixture(scope="session")
def ring4():
    return PolyRing(CoeffField(32003), ["x", "y", "z", "w"])


@pytest.fixture(scope="session")
def free_plane(ring2):
    return GradedModule.free(ring2)


@pytest.fixture(scope="session")
def mixed_line(ring2):
    x, y = ring2.gens()
    return GradedModule.quotient_ring(ring2, [x ** 2, x * y])


@pytest.fixture(scope="session")
def two_plane(ring4):
    x, y, z, w = ring4.gens()
    return GradedModule.quotient_ring(ring4, [x * z, x * w, y * z, y * w])


@pytest.fixture(scope="session")
def plane_plus_line(ring3):
    x, y, z = ring3.gens()
    a = GradedModule.quotient_ring(ring3, [x])
    b = GradedModule.quotient_ring(ring3, [y, z])
    return a.direct_sum(b)


@pytest.fixture(scope="session")
def dim3_buchsbaum(ring3):
    x, y, z = ring3.gens()
    amb = FreeModule(ring3, [2, 2, 2])
    return GradedModule.from_relations(amb, [amb.element([z, -y, x])])
