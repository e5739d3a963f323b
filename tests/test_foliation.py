import random
from fractions import Fraction

import pytest

from fdtc.errors import FoliationError, InconsistentDataError
from fdtc.foliation import (
    EllipticPoint,
    FoliationGraph,
    HyperbolicPoint,
    SingularityCounts,
    SurfaceTopology,
    aggregate_bounds,
    bc_annulus_witness_check,
    ceiling_average,
    ceiling_average_infimum,
    elliptic_point_bounds,
    multi_point_bounds,
    self_linking,
    transverse_ot_disc_check,
    validate_graph,
)

from conftest import overtwisted_disc_graph, replace, trivial_disc_graph


def closed_torus_graph():
    ells = (EllipticPoint("v+", 1, "C", True, True, False),
            EllipticPoint("v-", -1, "C", True, True, False))
    hyps = (HyperbolicPoint("h1", 1, "bb"), HyperbolicPoint("h2", -1, "bb"))
    inc = tuple((h, v) for h in ("h1", "h2") for v in ("v+", "v-") for _ in (0, 1))
    return FoliationGraph(SurfaceTopology(1, 0), ells, hyps, inc)


def closed_sphere_graph():
    ells = (EllipticPoint("p1", 1, "C"), EllipticPoint("p2", 1, "C"),
            EllipticPoint("n1", -1, "C"), EllipticPoint("n2", -1, "C"))
    hyps = (HyperbolicPoint("h1", 1, "bb"), HyperbolicPoint("h2", -1, "bb"))
    inc = tuple((h, v) for h in ("h1", "h2")
                for v in ("p1", "p2", "n1", "n2"))
    return FoliationGraph(SurfaceTopology(0, 0), ells, hyps, inc)


def annulus_graph():
    ells = (EllipticPoint("v+", 1, "C1", True, True, True),
            EllipticPoint("v-", -1, "C2", True, True, False))
    hyps = (HyperbolicPoint("h1", 1, "bb", degenerated=True),
            HyperbolicPoint("h2", -1, "bb", degenerated=True))
    inc = tuple((h, v) for h in ("h1", "h2") for v in ("v+", "v-")
                for _ in (0, 1))
    return FoliationGraph(SurfaceTopology(0, 2), ells, hyps, inc)


def valid_graph_family():
    return [trivial_disc_graph(), closed_torus_graph(),
            closed_sphere_graph(), annulus_graph()] + \
        [overtwisted_disc_graph(k) for k in range(1, 7)]


class TestValidateGraph:
    def test_examples_valid(self):
        for g in valid_graph_family():
            assert validate_graph(g) == [], validate_graph(g)

    def test_euler_mismatch(self):
        g = trivial_disc_graph()
        bad = replace(g, surface=SurfaceTopology(1, 1))
        assert any("Euler" in d for d in validate_graph(bad))

    def test_closed_unbalanced_elliptics(self):
        g = closed_torus_graph()
        flipped = tuple(
            replace(v, sign=1) if v.id == "v-" else v
            for v in g.elliptic_points)
        bad = replace(g, elliptic_points=flipped)
        assert any("algebraic intersection" in d for d in validate_graph(bad))

    def test_region_slot_mismatch(self):
        g = trivial_disc_graph()
        bad = replace(
            g, hyperbolic_points=(HyperbolicPoint("h1", 1, "bb"),))
        assert any("expected 4" in d for d in validate_graph(bad))

    def test_dangling_incidence(self):
        g = trivial_disc_graph()
        bad = replace(
            g, singular_leaf_incidence=g.singular_leaf_incidence + (("h9", "v1"),))
        assert any("unknown hyperbolic" in d for d in validate_graph(bad))

    def test_essential_ccircles_without_presence(self):
        g = trivial_disc_graph()
        bad = replace(g, c_circles_essential=True)
        assert any("none present" in d for d in validate_graph(bad))

    def test_c_region_without_circles(self):
        g = annulus_graph()
        bad = replace(
            g,
            hyperbolic_points=(HyperbolicPoint("h1", 1, "bc", True),),
            singular_leaf_incidence=(("h1", "v+"), ("h1", "v-")))
        assert any("declares no c-circles" in d for d in validate_graph(bad))


class TestSelfLinking:
    def test_standard_disc(self):
        assert self_linking(SingularityCounts(2, 0, 1, 0)) == -1
        assert self_linking(SingularityCounts(1, 0, 0, 0)) == -1
        assert self_linking(SingularityCounts(3, 1, 4, 2)) == 0

    def test_overtwisted_disc_value(self):
        g = overtwisted_disc_graph(3)
        assert self_linking(g.counts()) == 1


class TestEllipticPointBounds:
    def _graph(self, sign, p, n):
        v = EllipticPoint("v", sign, "C", True, True, False)
        extra = [EllipticPoint("w%d" % i, 1, "C", True, True, False)
                 for i in range(3)]
        hyps = []
        inc = []
        for i in range(p + n):
            hid = "h%d" % i
            hyps.append(HyperbolicPoint(hid, 1 if i < p else -1, "bb"))
            inc += [(hid, "v"), (hid, "v"), (hid, "w0"), (hid, "w1")]
        # surface topology chosen to satisfy Euler for this synthetic graph
        chi = 4 - len(hyps)
        surface = SurfaceTopology(0, 2 - chi) if chi <= 1 else SurfaceTopology(0, 1)
        return FoliationGraph(surface, tuple([v] + extra), tuple(hyps),
                              tuple(inc))

    def test_positive_point(self):
        g = self._graph(1, 2, 1)
        b = elliptic_point_bounds("v", g, "monodromy")
        assert (b.lower, b.upper) == (Fraction(-1), Fraction(2))

    def test_negative_point(self):
        g = self._graph(-1, 1, 3)
        b = elliptic_point_bounds("v", g, "monodromy")
        assert (b.lower, b.upper) == (Fraction(-1), Fraction(3))

    def test_isolated_point_pins_zero(self):
        v = EllipticPoint("v", 1, "C", True, True, False)
        g = FoliationGraph(SurfaceTopology(0, 1), (v,), (), ())
        b = elliptic_point_bounds("v", g)
        assert (b.lower, b.upper) == (0, 0)

    def test_monodromy_needs_strong_essentiality(self):
        v = EllipticPoint("v", 1, "C", essential=True,
                          strongly_essential=False, a_arcs_present=False)
        g = FoliationGraph(SurfaceTopology(0, 1), (v,), (), ())
        with pytest.raises(FoliationError):
            elliptic_point_bounds("v", g, "monodromy")
        assert elliptic_point_bounds("v", g, "braid") is not None

    def test_monodromy_rejects_a_arcs(self):
        v = EllipticPoint("v", 1, "C", True, True, a_arcs_present=True)
        g = FoliationGraph(SurfaceTopology(0, 1), (v,), (), ())
        with pytest.raises(FoliationError):
            elliptic_point_bounds("v", g, "monodromy")


class TestMultiPointBounds:
    def _two_point_graph(self):
        # two positive points with (p, n) = (3, 1) and (2, 2)
        vs = [EllipticPoint("v1", 1, "C", True, True, False),
              EllipticPoint("v2", 1, "C", True, True, False)]
        pad = [EllipticPoint("u%d" % i, -1, "C", True, True, False)
               for i in range(2)]
        hyps = []
        inc = []
        specs = {"v1": (3, 1), "v2": (2, 2)}
        i = 0
        for (v, (p, n)) in specs.items():
            for j in range(p + n):
                hid = "h%d" % i
                i += 1
                hyps.append(HyperbolicPoint(hid, 1 if j < p else -1, "bb"))
                inc += [(hid, v), (hid, v), (hid, "u0"), (hid, "u1")]
        surface = SurfaceTopology(0, 2 - (4 - len(hyps)))
        return FoliationGraph(surface, tuple(vs + pad), tuple(hyps),
                              tuple(inc))

    def test_spec_pair(self):
        g = self._two_point_graph()
        b = multi_point_bounds(["v1", "v2"], g)
        assert (b.lower, b.upper) == (Fraction(-1), Fraction(2))

    def test_single_point_matches(self):
        g = self._two_point_graph()
        single = elliptic_point_bounds("v1", g)
        multi = multi_point_bounds(["v1"], g)
        assert (single.lower, single.upper) == (multi.lower, multi.upper)

    def test_mixed_labels_rejected(self):
        g = overtwisted_disc_graph(3)
        moved = tuple(
            replace(v, boundary_label="D") if v.id == "w1" else v
            for v in g.elliptic_points)
        g2 = replace(g, elliptic_points=moved)
        with pytest.raises(FoliationError):
            multi_point_bounds(["v-", "w1"], g2)


class TestCeilingAverage:
    def test_worked_values(self):
        assert ceiling_average_infimum(2, 1) == 2
        assert ceiling_average_infimum(3, 2) == Fraction(3, 2)
        assert ceiling_average_infimum(2, 3) == Fraction(2, 3)

    def test_single_point_reduction(self):
        # n = 1 has no correction term: the infimum is the count itself
        for N in range(8):
            assert ceiling_average_infimum(N, 1) == N

    def test_closed_form_against_brute_force(self):
        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(1, 12)
            N = rng.randint(0, 40)
            brute = min(ceiling_average(N, n, m) for m in range(1, 1500))
            assert ceiling_average_infimum(N, n) == brute

    def test_zero_count(self):
        assert ceiling_average_infimum(0, 5) == 0


class TestAggregateBounds:
    def test_overtwisted_disc_centre(self):
        g = overtwisted_disc_graph(3)
        b = aggregate_bounds(["v-"], g)
        # one point, three positive partners: -p <= c <= n reduces to [-3, 0]
        assert (b.lower, b.upper) == (Fraction(-3), Fraction(0))

    def test_matches_multi_for_single_point(self):
        g = overtwisted_disc_graph(4)
        a = aggregate_bounds(["v-"], g)
        m = multi_point_bounds(["v-"], g)
        assert (a.lower, a.upper) == (m.lower, m.upper)

    def test_mixed_signs_rejected(self):
        g = overtwisted_disc_graph(3)
        with pytest.raises(FoliationError):
            aggregate_bounds(["v-", "w1"], g)

    def test_shared_partner_counted_once(self):
        g = overtwisted_disc_graph(3)
        b = aggregate_bounds(["w1", "w2", "w3"], g, "braid")
        # three positive points sharing three positive hyperbolic partners
        assert b.upper == ceiling_average_infimum(3, 3)
        assert b.lower == 0


class TestOvertwistedDiscCheck:
    def test_accepts_certificate(self):
        for k in (1, 2, 3, 5):
            out = transverse_ot_disc_check(overtwisted_disc_graph(k))
            assert out["valid"], out["violations"]
            assert out["non_right_veering"] and out["e_minus"] == 1

    def test_rejects_c_circles(self):
        bad = replace(overtwisted_disc_graph(3),
                                  c_circle_presence=True)
        out = transverse_ot_disc_check(bad)
        assert not out["valid"]
        assert any("c-circle" in v for v in out["violations"])

    def test_rejects_broken_negative_graph(self):
        g = overtwisted_disc_graph(3)
        flipped = tuple(
            replace(v, sign=1) if v.id == "v-" else v
            for v in g.elliptic_points)
        bad = replace(g, elliptic_points=flipped)
        out = transverse_ot_disc_check(bad)
        assert not out["valid"]
        assert any("not a tree" in v for v in out["violations"])

    def test_rejects_broken_positive_graph(self):
        g = overtwisted_disc_graph(3)
        inc = list(g.singular_leaf_incidence)
        inc[inc.index(("h3", "w1"))] = ("h3", "w3")
        bad = replace(g, singular_leaf_incidence=tuple(inc))
        out = transverse_ot_disc_check(bad)
        assert not out["valid"]
        assert any("not a circle" in v for v in out["violations"])
        assert not any("not a tree" in v for v in out["violations"])
        assert not any("c-circle" in v for v in out["violations"])

    def test_rejects_negative_separatrix_on_boundary(self):
        # a negative hyperbolic point with one negative elliptic neighbour:
        # its other separatrix ends on the boundary, at a fake vertex
        g = overtwisted_disc_graph(3)
        bad = replace(
            g, hyperbolic_points=g.hyperbolic_points
            + (HyperbolicPoint("hn", -1, "ab"),),
            singular_leaf_incidence=g.singular_leaf_incidence
            + (("hn", "v-"), ("hn", "w1")))
        out = transverse_ot_disc_check(bad)
        assert not out["valid"]
        assert "negative separatrix graph has fake vertices (separatrix " \
            "ends on the boundary)" in out["violations"]
        assert not any("not a tree" in v for v in out["violations"])

    def test_trivial_disc_not_overtwisted(self):
        out = transverse_ot_disc_check(trivial_disc_graph())
        assert not out["valid"]


class TestBcAnnulusWitness:
    def _graph(self, degenerated, essential):
        ells = (EllipticPoint("v+", 1, "C1", True, True, True),
                EllipticPoint("v-", -1, "C2", True, True, False))
        hyps = (HyperbolicPoint("h1", 1, "bc", degenerated),)
        inc = (("h1", "v+"), ("h1", "v-"))
        return FoliationGraph(SurfaceTopology(0, 2), ells, hyps, inc,
                              c_circle_presence=True,
                              c_circles_essential=essential)

    def test_witness_found(self):
        out = bc_annulus_witness_check(self._graph(True, True))
        assert out is not None and out["conclusion"] == "non-right-veering"

    def test_inessential_circles_no_witness(self):
        assert bc_annulus_witness_check(self._graph(True, False)) is None

    def test_nondegenerated_no_witness(self):
        assert bc_annulus_witness_check(self._graph(False, True)) is None

    def test_plain_tiles_no_witness(self):
        assert bc_annulus_witness_check(trivial_disc_graph()) is None


class TestJsonRoundtrip:
    def test_roundtrip(self):
        for g in valid_graph_family():
            assert FoliationGraph.from_json(g.to_json()) == g

    def test_malformed(self):
        with pytest.raises(FoliationError):
            FoliationGraph.from_json({"surface": {}})

    @pytest.mark.parametrize("path,bad", [
        (("surface", "genus"), 0.7),
        (("surface", "boundary_count"), True),
        (("elliptic_points", 0, "sign"), "1"),
        (("elliptic_points", 0, "sign"), 1.9),
        (("elliptic_points", 0, "essential"), "false"),
        (("elliptic_points", 0, "a_arcs_present"), 0),
        (("hyperbolic_points", 0, "sign"), True),
        (("hyperbolic_points", 0, "degenerated"), "true"),
        (("c_circles", "present"), 1),
        (("c_circles",), []),
        (("elliptic_points", 0, "id"), 1),
        (("elliptic_points", 0, "boundary_label"), None),
        (("hyperbolic_points", 0, "id"), ["h1"]),
        (("hyperbolic_points", 0, "region_type"), ["aa"]),
        (("singular_leaf_incidence", 0), "hv"),
        (("singular_leaf_incidence", 0, 1), 2),
        (("surface",), [0, 1]),
        (("elliptic_points",), {"a": 1}),
        (("elliptic_points", 0), ["v1"]),
        (("hyperbolic_points",), "h1"),
        (("hyperbolic_points", 0), 3),
        (("singular_leaf_incidence",), {"h1": "v1"}),
        ((), []),
    ])
    def test_read_as_written(self, path, bad):
        # path () replaces the whole graph
        place = root = [trivial_disc_graph().to_json()]
        path = (0,) + path
        for key in path[:-1]:
            place = place[key]
        place[path[-1]] = bad
        # checked_type's message, not a Python one such as "string
        # indices must be integers"
        with pytest.raises(FoliationError,
                           match=r"must be (an?|true or false)\b"):
            FoliationGraph.from_json(root[0])

    def test_absent_boundary_label_is_empty(self):
        data = trivial_disc_graph().to_json()
        del data["elliptic_points"][0]["boundary_label"]
        g = FoliationGraph.from_json(data)
        assert g.elliptic_points[0].boundary_label == ""
