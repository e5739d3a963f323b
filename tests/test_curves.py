import random
from itertools import chain, cycle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fdtc.errors import CurveError, TriangulationError
from fdtc import curves, engine
from fdtc.fdtc import _boundary_power_arc, _first_probe_arc
from fdtc.mcg import Generator, MappingClassWord
from fdtc.surface import SurfaceSpec, standard_triangulation
from fdtc.curves import (
    ArcClass,
    NormalCoordinates,
    Ordering,
    boundary_drag,
    boundary_parallel_curve,
    collar_laps,
    compare_at_base,
    enumerate_arcs,
    geometric_intersection,
    is_essential,
    is_matching,
    is_puncture_parallel,
    puncture_link_curve,
    trace_components,
)
from conftest import (
    GENUS2_CHAIN,
    GENUS3_CHAIN,
    TORUS_A,
    TORUS_B,
    TWO_HOLED_A,
    TWO_HOLED_B,
    TWO_HOLED_C,
    TWO_HOLED_FOLDED,
    TWO_HOLED_ODD,
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

    @pytest.mark.parametrize("weights", [TWO_HOLED_ODD, TWO_HOLED_FOLDED])
    def test_one_bad_triangle_on_two_holed_torus(self, two_holed_torus_tri,
                                                 weights):
        assert not is_matching(NormalCoordinates(two_holed_torus_tri, weights))

    @pytest.mark.parametrize("weights", [
        [0.7, 1, 0, 1, 1.9],
        [0, 1.0, 0, 1, 1],
        ["0", 1, 0, 1, 1],
        [True, 1, 0, 1, 1],
        [0, 1, 0, -1, 1],
    ], ids=["float", "integral-float", "string", "bool", "negative"])
    def test_weights_checked_not_coerced(self, torus_tri, weights):
        with pytest.raises(CurveError, match="non-negative integers"):
            NormalCoordinates(torus_tri, weights)
        assert NormalCoordinates(torus_tri, TORUS_A).weights == TORUS_A


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


class TestFlippedArcs:
    """An arc is read off the sides its walk leaves triangles by, not
    the edges it crosses: flips of a punctured disc make self-folded
    triangles, whose two sides on one edge an edge list cannot tell
    apart, and two walks there cross the same edges in the same order."""

    def test_flipped_once_punctured_disc_keeps_inessential_classes(self):
        std = standard_triangulation(SurfaceSpec(0, ("C",), 1))
        want = len(curves._inessential_arcs(std, "C"))
        assert want == 6
        for seed in range(20):
            rng, tri = random.Random(seed), std
            for _ in range(6):
                interior = [e for e in range(tri.edge_count)
                            if not tri.is_boundary_edge(e)]
                try:
                    tri, _step = engine.flip(tri, rng.choice(interior))
                except TriangulationError:
                    continue  # the folded edge of a self-folded triangle
            assert len(curves._inessential_arcs(tri, "C")) == want, seed


class TestArcPassages:
    @pytest.mark.parametrize("fixture,C", WALKER_CASES)
    def test_agrees_with_walk(self, fixture, C, request):
        tri = request.getfixturevalue(fixture)
        arcs = enumerate_arcs(tri, C, 6)
        assert arcs
        for g in arcs:
            passages = g.passages()
            entry = tri.incidences[tri.base_edge_of[C]][0]
            for (t, k_in, k_out, e, _slot) in passages:
                assert (t, k_in) == entry
                assert k_in != k_out
                assert tri.triangles[t][k_out][0] == e
                if not tri.is_boundary_edge(e):
                    entry = tri.other_incidence(e, t, k_out)
            assert tri.is_boundary_edge(passages[-1][3])


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

    def test_multicurve_counts_each_component(self, torus_tri):
        a2 = NormalCoordinates(torus_tri, tuple(2 * x for x in TORUS_A))
        b = NormalCoordinates(torus_tri, TORUS_B)
        assert geometric_intersection(a2, b) == 2
        assert geometric_intersection(b, a2) == 2

    def test_arcs_against_closed_curves_on_two_holed_torus(
            self, two_holed_torus_tri):
        tri = two_holed_torus_tri
        curves_ = [TWO_HOLED_A, TWO_HOLED_B, TWO_HOLED_C,
                   boundary_parallel_curve(tri, "C1").weights,
                   boundary_parallel_curve(tri, "C2").weights]
        want = {"C1": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 2, 2],
                       [1, 1, 2, 2], [1, 1, 0, 0]],
                "C2": [[0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 1, 1],
                       [1, 1, 1]]}
        for C, rows in want.items():
            arcs = enumerate_arcs(tri, C, 6)[:4]
            for c, row in zip(curves_, rows):
                c = NormalCoordinates(tri, c)
                assert [geometric_intersection(g.coords, c)
                        for g in arcs] == row
                assert [geometric_intersection(c, g.coords)
                        for g in arcs] == row

    def test_arcs_against_closed_curves_on_disc3(self, disc3_tri):
        tri = disc3_tri
        arcs = enumerate_arcs(tri, "C", 7)[:5]
        curves_ = [engine.pair_curve_weights(tri, 1),
                   engine.pair_curve_weights(tri, 2),
                   boundary_parallel_curve(tri, "C").weights] + [
            puncture_link_curve(tri, v).weights
            for v in tri.puncture_vertices]
        rows = [[2, 2, 2, 0, 2], [2, 0, 0, 2, 0], [2, 2, 2, 2, 2]] + \
            [[0] * 5] * 3
        for c, row in zip(curves_, rows, strict=True):
            c = NormalCoordinates(tri, c)
            assert [geometric_intersection(g.coords, c) for g in arcs] == row

    def test_puncture_links_miss_a_heavy_curve(self, disc3_tri):
        # x crosses each puncture link's edges about 2 * 10^9 times, yet a
        # link bounds a once-punctured disc, which x can avoid
        tri = disc3_tri
        p1 = engine.pair_curve_weights(tri, 1)
        p2 = engine.pair_curve_weights(tri, 2)
        enc = engine.compose((engine.twist_encoding(tri, p1),
                              engine.twist_encoding(tri, p2, -1)))
        x = NormalCoordinates(tri, enc.power(12).forward(p1))
        for v in tri.puncture_vertices:
            link = puncture_link_curve(tri, v)
            assert sum(a * b for a, b in zip(x.weights, link.weights)) > 10 ** 9
            assert geometric_intersection(x, link) == 0
            assert geometric_intersection(link, x) == 0


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
    def test_rejects_bad_directions(self, torus_tri):
        gamma = enumerate_arcs(torus_tri, "S", 8)[0]
        assert gamma.coords.weights == (0, 1, 2, 1, 1)
        for direction in (0, 2, -2):
            with pytest.raises(CurveError, match="not %d" % direction):
                collar_laps(gamma, direction)
            with pytest.raises(CurveError, match="not %d" % direction):
                boundary_drag(gamma, "S", direction)

    def test_bare_disc_has_no_collar_loop(self):
        # the walk around the one triangle crosses no edge, so the collar
        # loop is empty and no arc winds around the collar
        tri = standard_triangulation(SurfaceSpec(0, ("C",)))
        assert boundary_parallel_curve(tri, "C").weights == (0, 0, 0)
        for weights in ((1, 1, 0), (1, 0, 1)):
            g = ArcClass(NormalCoordinates(tri, weights), ("C", 0))
            assert compare_at_base(g, g, "C") is Ordering.EQUAL
            for direction in (1, -1):
                assert collar_laps(g, direction) == 0

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
    """Pairs below and above the cap of 50,000 crossing pairs that an
    overlay of strands once had take one route: the twist growth along
    the closed side.  Two sides that both carry arc ends have none."""

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
        assert self._pairs(torus_tri, a, b) <= 50_000
        assert geometric_intersection(a, b) == 160 ** 2 + 1
        assert geometric_intersection(b, a) == 160 ** 2 + 1

    def test_twist_route_above_the_cap(self, torus_tri):
        a, b = self._twisted(torus_tri, 320)
        assert self._pairs(torus_tri, a, b) > 50_000
        assert geometric_intersection(a, b) == 320 ** 2 + 1

    def test_arcs_above_the_cap_rejected(self, torus_tri):
        # both sides with arc ends, heavy or light: no closed side
        gamma = enumerate_arcs(torus_tri, "S", 6)[0].coords.weights
        enc = engine.compose((engine.twist_encoding(torus_tri, TORUS_A, 1),
                              engine.twist_encoding(torus_tri, TORUS_B, -1)))
        for k in (0, 12):
            a = NormalCoordinates(torus_tri, enc.power(k).forward(gamma))
            b = NormalCoordinates(torus_tri, enc.power(k + 1).forward(gamma))
            with pytest.raises(CurveError, match="need a closed side"):
                geometric_intersection(a, b)


# ---------------------------------------------------------------------------
# skipping whole collar laps

_NEXT = (1, 2, 0)
_PREV = (2, 0, 1)


def _plain_lockstep(a, b, t, k, qa, qb, budget):
    """The lockstep one passage at a time, with no lap skipped."""
    wa, wb = a.weights, b.weights
    triangles = a.tri.triangles
    gluing = curves._gluing(a.tri)
    for _ in range(budget):
        sides = triangles[t]
        e0 = sides[k][0]
        e1 = sides[_NEXT[k]][0]
        e2 = sides[_PREV[k]][0]
        left_a = qa < (wa[e0] + wa[e2] - wa[e1]) // 2
        left_b = qb < (wb[e0] + wb[e2] - wb[e1]) // 2
        if left_a != left_b:
            return -1 if left_b else 1
        if left_a:
            k2 = _PREV[k]
            qa = wa[e2] - 1 - qa
            qb = wb[e2] - 1 - qb
        else:
            k2 = _NEXT[k]
            qa = wa[e0] - 1 - qa
            qb = wb[e0] - 1 - qb
        glued = gluing[t][k2]
        if glued is None:
            return 0
        t, k, flip = glued
        if flip:
            e = sides[k2][0]
            qa = wa[e] - 1 - qa
            qb = wb[e] - 1 - qb
    return None


def _plain_compare(g1, g2, C):
    with mock.patch.object(curves, "_lockstep", _plain_lockstep):
        return compare_at_base(g1, g2, C)


def _plain_laps(g, direction):
    """Passages of the strand that follow the collar walk from the base
    edge to the collar loop and then repeat the loop's exit sides, in
    whole laps."""
    tri = g.tri
    eps = tri.base_edge_of[g.start[0]]
    _entry, loop, lead = curves._collar_loop(tri, g.start[0], direction, eps)
    approach = lead[:-len(loop)]
    lap = lead[-len(loop):]
    t0, k0 = tri.incidences[eps][0]
    c = g.coords
    q = curves._position(c, t0, k0, g.start[1])
    n = 0
    for p, k_out in zip(curves._walk(c, t0, k0, q, c.total_weight + 1),
                        chain(approach, cycle(lap))):
        if p[2] != k_out:
            break
        n += 1
    return max(n - len(approach), 0) // len(lap)


def _start(g1, g2):
    tri = g1.tri
    t, k = tri.incidences[tri.base_edge_of[g1.start[0]]][0]
    return (t, k, curves._position(g1.coords, t, k, g1.start[1]),
            curves._position(g2.coords, t, k, g2.start[1]))


def _twists(*curves_):
    return [Generator.twist(c) for c in curves_]


def _braids(n):
    return [Generator.braid(i) for i in range(1, n)]


# (triangulation fixture, component, letters besides the boundary twists)
LAP_CASES = [
    ("torus_tri", "S", _twists(TORUS_A, TORUS_B)),
    ("two_holed_torus_tri", "C1", _twists(TWO_HOLED_A, TWO_HOLED_B,
                                          TWO_HOLED_C)),
    ("two_holed_torus_tri", "C2", _twists(TWO_HOLED_A, TWO_HOLED_B,
                                          TWO_HOLED_C)),
    ("disc3_tri", "C", _braids(3)),
    ("disc4_tri", "C", _braids(4)),
    ("genus2_tri", "S", _twists(*GENUS2_CHAIN)),
    ("genus3_tri", "S", _twists(*GENUS3_CHAIN)),
]


class TestLapSkipping:
    """Skipping whole collar laps changes no answer: comparisons and lap
    counts equal the passage-by-passage walk, budgets run out at the same
    passage, and the passages stepped do not grow with the laps."""

    @pytest.mark.parametrize("fixture,C,letters", LAP_CASES,
                             ids=["%s-%s" % case[:2] for case in LAP_CASES])
    def test_matches_plain_walk(self, fixture, C, letters, request):
        tri = request.getfixturevalue(fixture)
        gamma = _first_probe_arc(tri, C)
        letter = st.builds(lambda g, p: Generator(g.kind, p, g.target),
                           st.sampled_from(letters),
                           st.sampled_from([-2, -1, 1, 2]))
        shift = st.builds(Generator.boundary,
                          st.sampled_from(sorted(tri.base_edge_of)),
                          st.integers(-3, 3))

        @settings(max_examples=25, deadline=None)
        @given(st.lists(letter, max_size=3), shift, st.integers(1, 31),
               st.integers(-40, 40))
        def check(body, boundary, N, m):
            # an empty body leaves a boundary-only word: its image is a
            # twist power of gamma, equal to one of the T_C^m(gamma), and
            # the comparison walks both arcs to their far ends
            w = MappingClassWord(tri, body + [boundary])
            image = w.orbit_arc(gamma, N)
            powers = [m]
            if not body and boundary.target == C:
                powers.append(boundary.power * N)
            for n in powers:
                twisted = _boundary_power_arc(gamma, C, n)
                for g1, g2 in ((twisted, image), (image, twisted)):
                    assert compare_at_base(g1, g2, C) is \
                        _plain_compare(g1, g2, C)
            for g in (image, twisted):
                for direction in (1, -1):
                    assert collar_laps(g, direction) == \
                        _plain_laps(g, direction)

        check()

    @pytest.mark.parametrize("fixture,C", WALKER_CASES)
    def test_budget_runs_out_where_plain_walk_does(self, fixture, C, request):
        tri = request.getfixturevalue(fixture)
        arcs = enumerate_arcs(tri, C, 7)[:3]
        for m in (6, -5):
            for g1 in (_boundary_power_arc(a, C, m) for a in arcs):
                # equal pairs run through the spirals at both ends; arcs
                # with different ends on C shift by different laps
                for g2 in (_boundary_power_arc(a, C, n) for a in arcs
                           for n in (m, m + 1)):
                    start = _start(g1, g2)
                    for budget in range(g1.coords.total_weight + 3):
                        assert curves._lockstep(g1.coords, g2.coords, *start,
                                                budget) == \
                            _plain_lockstep(g1.coords, g2.coords, *start,
                                            budget)

    def test_passages_do_not_grow_with_laps(self, torus_tri, monkeypatch):
        gamma = _first_probe_arc(torus_tri, "S")
        gluing = curves._gluing(torus_tri)
        curves._collar_entries(torus_tri)
        stepped = []

        class Row(list):
            # every passage reads one entry of the gluing table
            def __getitem__(self, k):
                stepped.append(k)
                return list.__getitem__(self, k)

        monkeypatch.setattr(curves, "_gluing",
                            lambda tri: [Row(row) for row in gluing])

        def passages(m):
            del stepped[:]
            lower = _boundary_power_arc(gamma, "S", m)
            upper = _boundary_power_arc(gamma, "S", m + 1)
            assert compare_at_base(lower, upper, "S") is Ordering.RIGHT_OF
            assert compare_at_base(upper, lower, "S") is Ordering.LEFT_OF
            assert compare_at_base(lower, lower, "S") is Ordering.EQUAL
            # the first lap of T_C^m(gamma) is the first drag, which
            # leaves gamma's strand in place on the one-holed torus
            assert collar_laps(lower, 1) == m - 1
            assert collar_laps(_boundary_power_arc(gamma, "S", -m), -1) == m
            return len(stepped)

        few = passages(10)
        assert few == passages(10 ** 6)
        assert few < _plain_laps(_boundary_power_arc(gamma, "S", 10), 1) * \
            len(curves._collar_loop(torus_tri, "S", 1,
                                    torus_tri.base_edge_of["S"])[1])
