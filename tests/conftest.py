import pytest

from fdtc.curves import ArcClass
from fdtc.foliation import (
    EllipticPoint,
    FoliationGraph,
    HyperbolicPoint,
    SurfaceTopology,
)
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


def apply_arc(w, g):
    """w(g) for a boundary-based arc g, read off the image of its normal
    coordinates: the reference for ``orbit_arc`` and the boundary
    powers.  A mapping class word fixes the boundary pointwise, so the
    start slot is kept."""
    return ArcClass(w.apply(g.coords), g.start)


# -- foliation examples -------------------------------------------------------


def trivial_disc_graph():
    """The disc bounded by a trivially braided unknot: two positive
    elliptic points joined through one positive hyperbolic point in an
    aa-tile.  Its self-linking number is -1."""
    return FoliationGraph(
        SurfaceTopology(0, 1),
        (EllipticPoint("v1", 1, "C", True, True, True),
         EllipticPoint("v2", 1, "C", True, True, True)),
        (HyperbolicPoint("h1", 1, "aa"),),
        (("h1", "v1"), ("h1", "v2")),
    )


def overtwisted_disc_graph(spokes=3):
    """A disc certificate with a single negative elliptic point: one
    negative centre, ``spokes`` positive elliptic points around it, and
    one positive hyperbolic point in an ab-tile between consecutive
    spokes.  The positive separatrix graph is a ``spokes``-cycle and the
    negative one is the lone centre vertex."""
    centre = EllipticPoint("v-", -1, "C", True, True, False)
    ells = [centre] + [
        EllipticPoint("w%d" % i, 1, "C", True, True, True)
        for i in range(1, spokes + 1)
    ]
    hyps = []
    inc = []
    for i in range(1, spokes + 1):
        hid = "h%d" % i
        hyps.append(HyperbolicPoint(hid, 1, "ab", degenerated=spokes == 1))
        inc.append((hid, "v-"))
        inc.append((hid, "w%d" % i))
        inc.append((hid, "w%d" % (i % spokes + 1)))
    return FoliationGraph(SurfaceTopology(0, 1), tuple(ells), tuple(hyps),
                          tuple(inc))


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
def pants_tri():
    return standard_triangulation(SurfaceSpec(0, ("C1", "C2", "C3")))


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
