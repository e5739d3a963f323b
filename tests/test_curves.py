import random

import pytest

from fdtc.errors import ComputationError, CurveError, MatchingError
from fdtc import curves, engine
from fdtc.curves import (
    ArcClass,
    NormalCoordinates,
    Ordering,
    arc_passages,
    boundary_drag,
    boundary_parallel_curve,
    collar_laps,
    compare_at_base,
    enumerate_arcs,
    geometric_intersection,
    is_essential,
    is_matching,
    is_puncture_parallel,
    tighten,
    trace_components,
)
from conftest import (
    TORUS_A,
    TORUS_B,
    TWO_HOLED_A,
    TWO_HOLED_B,
    TWO_HOLED_C,
)

# (triangulation fixture, boundary component) pairs the strand walker is
# checked on
WALKER_CASES = [
    ("torus_tri", "S"),
    ("two_holed_torus_tri", "C1"),
    ("two_holed_torus_tri", "C2"),
    ("disc3_tri", "C"),
]


class TestMatching:
    def test_reference_curves_match(self, torus_tri):
        for w in (TORUS_A, TORUS_B):
            assert is_matching(NormalCoordinates(torus_tri, w))

    def test_triangle_inequality_violation(self, torus_tri):
        assert not is_matching(NormalCoordinates(torus_tri, (5, 1, 0, 1, 1)))

    def test_zero_is_matching(self, torus_tri):
        assert is_matching(NormalCoordinates(torus_tri, (0,) * 5))

    def test_tighten_fixes_matching(self, torus_tri):
        c = NormalCoordinates(torus_tri, TORUS_A)
        assert tighten(c).weights == c.weights


class TestTraceComponents:
    def test_single_curve(self, torus_tri):
        comps = trace_components(NormalCoordinates(torus_tri, TORUS_A))
        assert len(comps) == 1

    def test_multiple_of_curve(self, torus_tri):
        doubled = tuple(2 * w for w in TORUS_A)
        comps = trace_components(NormalCoordinates(torus_tri, doubled))
        assert len(comps) == 2


class TestBoundaryParallel:
    def test_torus(self, torus_tri):
        bp = boundary_parallel_curve(torus_tri, "S")
        assert is_matching(bp)
        assert len(trace_components(bp)) == 1

    def test_two_components(self, two_holed_torus_tri):
        b1 = boundary_parallel_curve(two_holed_torus_tri, "C1")
        b2 = boundary_parallel_curve(two_holed_torus_tri, "C2")
        assert b1.weights != b2.weights

    def test_puncture_parallel_detection(self, disc2_tri):
        from fdtc.curves import puncture_link_curve
        for vid in disc2_tri.puncture_vertices:
            assert is_puncture_parallel(puncture_link_curve(disc2_tri, vid))
        assert not is_puncture_parallel(
            boundary_parallel_curve(disc2_tri, "C"))


class TestEnumerateArcs:
    def test_all_essential_and_based(self, torus_tri):
        arcs = enumerate_arcs(torus_tri, "S", 6)
        assert arcs
        for g in arcs:
            assert is_essential(g)
            assert g.start[0] == "S"

    def test_monotone_in_bound(self, torus_tri):
        small = {g.coords.weights for g in enumerate_arcs(torus_tri, "S", 4)}
        large = {g.coords.weights for g in enumerate_arcs(torus_tri, "S", 6)}
        assert small <= large

    def test_respects_component(self, two_holed_torus_tri):
        for g in enumerate_arcs(two_holed_torus_tri, "C2", 6):
            assert g.start[0] == "C2"


class TestArcPassages:
    @pytest.mark.parametrize("fixture,C", WALKER_CASES)
    def test_agrees_with_walk(self, fixture, C, request):
        tri = request.getfixturevalue(fixture)
        arcs = enumerate_arcs(tri, C, 6)
        assert arcs
        for g in arcs:
            passages = arc_passages(g)
            edges, _slots = g.walk()
            assert len(passages) == len(edges)
            entry = tri.incidences[tri.base_edge_of[C]][0]
            for (t, k_in, k_out), e in zip(passages, edges):
                assert (t, k_in) == entry
                assert k_in != k_out
                assert tri.triangles[t][k_out][0] == e
                if not tri.is_boundary_edge(e):
                    entry = tri.other_incidence(e, t, k_out)
            assert tri.is_boundary_edge(edges[-1])


class TestGeometricIntersection:
    def test_reference_pair(self, torus_tri):
        a = NormalCoordinates(torus_tri, TORUS_A)
        b = NormalCoordinates(torus_tri, TORUS_B)
        assert geometric_intersection(a, b) == 1
        assert geometric_intersection(b, a) == 1

    def test_self_intersection_zero(self, torus_tri):
        a = NormalCoordinates(torus_tri, TORUS_A)
        assert geometric_intersection(a, a) == 0

    def test_boundary_parallel_disjoint(self, torus_tri):
        a = NormalCoordinates(torus_tri, TORUS_A)
        bp = boundary_parallel_curve(torus_tri, "S")
        assert geometric_intersection(a, bp) == 0

    def test_symmetric_on_two_holed_torus(self, two_holed_torus_tri):
        tri = two_holed_torus_tri
        a, b, c = TWO_HOLED_A, TWO_HOLED_B, TWO_HOLED_C
        ta = engine.twist_encoding(tri, a)
        tb = engine.twist_encoding(tri, b)
        weights = [a, b, c,
                   boundary_parallel_curve(tri, "C1").weights,
                   boundary_parallel_curve(tri, "C2").weights,
                   ta.forward(b), tb.forward(tb.forward(c)), tb.forward(a)]
        coords = [NormalCoordinates(tri, w) for w in weights]
        for x in coords:
            for y in coords:
                assert geometric_intersection(x, y) == \
                    geometric_intersection(y, x)
        ca, cb, cc = coords[:3]
        assert geometric_intersection(ca, cb) == 1
        assert geometric_intersection(cb, cc) == 1
        assert geometric_intersection(ca, cc) == 0

    def test_twist_images(self, torus_tri):
        # i(T_b^k a, a) grows linearly: |k| * i(a,b)^2
        a = NormalCoordinates(torus_tri, TORUS_A)
        enc = engine.twist_encoding(torus_tri, TORUS_B)
        img = a.weights
        for k in (1, 2, 3):
            img = enc.forward(img)
            got = geometric_intersection(NormalCoordinates(torus_tri, img), a)
            assert got == k


class TestCompareAtBase:
    def test_equal_on_same_arc(self, torus_tri):
        g = enumerate_arcs(torus_tri, "S", 5)[0]
        assert compare_at_base(g, g, "S") is Ordering.EQUAL

    def test_antisymmetric(self, request):
        flips = {Ordering.RIGHT_OF: Ordering.LEFT_OF,
                 Ordering.LEFT_OF: Ordering.RIGHT_OF,
                 Ordering.EQUAL: Ordering.EQUAL}
        for fixture, C in WALKER_CASES:
            arcs = enumerate_arcs(request.getfixturevalue(fixture), C, 7)
            seen_strict = False
            for g1 in arcs[:6]:
                for g2 in arcs[:6]:
                    o = compare_at_base(g1, g2, C)
                    assert compare_at_base(g2, g1, C) is flips[o]
                    seen_strict = seen_strict or o is not Ordering.EQUAL
            assert seen_strict, (fixture, C)


class TestBoundaryDrag:
    def test_drag_round_trip(self, torus_tri):
        for g in enumerate_arcs(torus_tri, "S", 5)[:6]:
            once = boundary_drag(g, "S", 1)
            back = boundary_drag(once, "S", -1)
            assert back.coords.weights == g.coords.weights

    def test_drag_matches_boundary_twist(self, torus_tri):
        # dragging both endpoints around the boundary is the boundary twist
        bp = boundary_parallel_curve(torus_tri, "S").weights
        enc = engine.twist_encoding(torus_tri, bp)
        for g in enumerate_arcs(torus_tri, "S", 5)[:6]:
            dragged = boundary_drag(g, "S", 1)
            assert enc.forward(g.coords.weights) == dragged.coords.weights

    def test_drag_on_annulus_components(self, annulus_tri):
        for lab in ("C1", "C2"):
            for g in enumerate_arcs(annulus_tri, lab, 6)[:4]:
                once = boundary_drag(g, lab, 1)
                assert boundary_drag(once, lab, -1).coords.weights == \
                    g.coords.weights

    def test_dragged_arc_moves_right(self, torus_tri):
        # a positive boundary twist never moves an arc strictly left
        for g in enumerate_arcs(torus_tri, "S", 5)[:6]:
            dragged = boundary_drag(g, "S", 1)
            assert compare_at_base(g, dragged, "S") is not Ordering.LEFT_OF


class TestCollarLaps:
    @pytest.mark.parametrize("fixture,C", WALKER_CASES)
    def test_one_lap_per_drag(self, fixture, C, request):
        tri = request.getfixturevalue(fixture)
        gamma = enumerate_arcs(tri, C, 8)[0]
        for direction in (1, -1):
            assert collar_laps(gamma, direction) == 0
            dragged = boundary_drag(gamma, C, direction)
            first = collar_laps(dragged, direction)
            assert first in (0, 1)
            for m in range(2, 8):
                dragged = boundary_drag(dragged, C, direction)
                assert collar_laps(dragged, direction) == first + m - 1


class TestOverlayCap:
    """Pairs with more crossing pairs than the overlay cap go through the
    twist-growth route, or fail with an error naming the cap."""

    def _twisted(self, tri, k):
        a = NormalCoordinates(tri, engine.twist_encoding(
            tri, TORUS_B, k).forward(TORUS_A))
        b = NormalCoordinates(tri, engine.twist_encoding(
            tri, TORUS_A, k).forward(TORUS_B))
        return a, b

    def _pairs(self, tri, a, b):
        return sum(x * y for e, (x, y) in enumerate(zip(a.weights, b.weights))
                   if len(tri.incidences[e]) == 2)

    def test_routes_agree_below_the_cap(self, torus_tri):
        a, b = self._twisted(torus_tri, 160)
        assert self._pairs(torus_tri, a, b) <= curves.OVERLAY_PAIR_LIMIT
        assert geometric_intersection(a, b) == 160 ** 2 + 1
        assert curves._twist_growth_intersection(a, b) == 160 ** 2 + 1

    def test_twist_route_above_the_cap(self, torus_tri, monkeypatch):
        a, b = self._twisted(torus_tri, 320)
        assert self._pairs(torus_tri, a, b) > curves.OVERLAY_PAIR_LIMIT

        def fail(*args):
            raise AssertionError("overlay attempted above the cap")

        monkeypatch.setattr(curves, "_overlay_intersection", fail)
        assert geometric_intersection(a, b) == 320 ** 2 + 1

    def test_arcs_above_the_cap_rejected(self, torus_tri):
        gamma = enumerate_arcs(torus_tri, "S", 6)[0].coords.weights
        enc = engine.twist_encoding(torus_tri, TORUS_A, 1) + \
            engine.twist_encoding(torus_tri, TORUS_B, -1)
        a = NormalCoordinates(torus_tri, enc.power(12).forward(gamma))
        b = NormalCoordinates(torus_tri, enc.power(13).forward(gamma))
        assert self._pairs(torus_tri, a, b) > curves.OVERLAY_PAIR_LIMIT
        with pytest.raises(ComputationError, match="overlay cap of 50000"):
            geometric_intersection(a, b)
