import pytest

from fdtc.surface import SurfaceSpec, standard_triangulation

# reference curves on the standard one-holed torus triangulation
TORUS_A = (0, 1, 0, 1, 1)
TORUS_B = (1, 0, 0, 1, 0)

# a 3-chain on the standard two-holed torus triangulation: a and c are
# disjoint and each meets b once
TWO_HOLED_A = (0, 1, 0, 0, 0, 1, 1, 0, 0, 0)
TWO_HOLED_B = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)
TWO_HOLED_C = (0, 1, 1, 0, 0, 1, 1, 2, 1, 1)

# weights on the same triangulation that violate the matching conditions
# in one triangle only: an odd total (1, 1, 1), and 2 > 0 + 0
TWO_HOLED_ODD = (0, 1, 1, 1, 0, 1, 1, 2, 1, 1)
TWO_HOLED_FOLDED = (0, 1, 0, 2, 0, 1, 1, 0, 0, 0)

# a 4-chain on the standard genus-2 one-boundary triangulation; the
# product of its twists has coefficient 1/10
GENUS2_CHAIN = (
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1),
    (0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 1, 0, 1, 1, 2, 2, 1, 1),
    (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
)

# a 6-chain on the standard genus-3 one-boundary triangulation; the
# product of its twists has coefficient 1/14
GENUS3_CHAIN = (
    (1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 1, 0, 0, 0, 0, 0, 1, 2, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 2, 1, 1, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0),
)


def replace(record, **changes):
    """The record with the named fields changed, rebuilt through its
    constructor and so through its checks, as ``dataclasses.replace``
    does for a dataclass."""
    fields = {k: getattr(record, k) for k in record.__slots__}
    unknown = set(changes) - set(fields)
    if unknown:
        raise TypeError("%s has no field %s"
                        % (type(record).__name__, sorted(unknown)))
    fields.update(changes)
    return type(record)(**fields)


@pytest.fixture(scope="session")
def torus_tri():
    return standard_triangulation(SurfaceSpec(1, ("S",)))


@pytest.fixture(scope="session")
def two_holed_torus_tri():
    return standard_triangulation(SurfaceSpec(1, ("C1", "C2")))


@pytest.fixture(scope="session")
def annulus_tri():
    return standard_triangulation(SurfaceSpec(0, ("C1", "C2")))


@pytest.fixture(scope="session")
def disc2_tri():
    return standard_triangulation(SurfaceSpec(0, ("C",), 2))


@pytest.fixture(scope="session")
def disc3_tri():
    return standard_triangulation(SurfaceSpec(0, ("C",), 3))


@pytest.fixture(scope="session")
def disc4_tri():
    return standard_triangulation(SurfaceSpec(0, ("C",), 4))


@pytest.fixture(scope="session")
def genus2_tri():
    return standard_triangulation(SurfaceSpec(2, ("S",)))


@pytest.fixture(scope="session")
def genus3_tri():
    return standard_triangulation(SurfaceSpec(3, ("S",)))
