"""Acceptance gate: the criteria the package must meet, one test per
criterion, with exact (zero-tolerance) comparisons and wall-clock caps
where specified.  Each test prints a single PASS line on success."""

import json
import random
import time
from fractions import Fraction

import pytest

from fdtc.surface import SurfaceSpec, standard_triangulation
from fdtc import curves, engine, foliation, topology
from fdtc.curves import NormalCoordinates, enumerate_arcs, geometric_intersection
from fdtc.mcg import Generator, MappingClassWord, acts_identically
from fdtc.fdtc import (
    RationalInterval,
    bounded_denominator_candidates,
    braid_fdtc,
    fdtc_exact,
    key_lemma_interval,
    unique_bounded_denominator,
)

from conftest import overtwisted_disc_graph, replace, trivial_disc_graph

TORUS_A = (0, 1, 0, 1, 1)
TORUS_B = (1, 0, 0, 1, 0)


def _torus():
    return standard_triangulation(SurfaceSpec(1, ("S",)))


def _random_torus_words(count, max_len, seed):
    tri = _torus()
    letters = [Generator.twist(TORUS_A, 1), Generator.twist(TORUS_A, -1),
               Generator.twist(TORUS_B, 1), Generator.twist(TORUS_B, -1)]
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        n = rng.randint(1, max_len)
        w = MappingClassWord(tri, [rng.choice(letters) for _ in range(n)])
        if w.generators:
            words.append(w)
    return tri, words


def test_criterion_01_boundary_twist_calibration():
    """fdtc(boundary^k) = k for k in -3..3, per boundary component."""
    start = time.monotonic()
    for spec in (SurfaceSpec(1, ("S",)), SurfaceSpec(1, ("C1", "C2"))):
        tri = standard_triangulation(spec)
        for lab in spec.boundary_labels:
            for k in range(-3, 4):
                w = MappingClassWord(tri, [Generator.boundary(lab, k)])
                assert fdtc_exact(w, lab).value == k, (spec, lab, k)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print("PASS criterion 1: boundary calibration exact on both surfaces "
          "(%.2fs)" % elapsed)


def test_criterion_02_chain_relation():
    """c(T_a T_b) = 1/6 with N = 31, D = 6, cross-checked by the chain
    relation acting trivially on probes."""
    start = time.monotonic()
    tri = _torus()
    w = MappingClassWord(tri, [Generator.twist(TORUS_A),
                               Generator.twist(TORUS_B)])
    res = fdtc_exact(w, "S")
    assert res.value == Fraction(1, 6)
    assert res.N == 31 and res.D == 6
    relator = w.power(6).compose(
        MappingClassWord(tri, [Generator.boundary("S", -1)]))
    ok, witness = acts_identically(relator, 8)
    assert ok and witness is None
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print("PASS criterion 2: chain relation gives 1/6 (N=31, D=6) "
          "(%.2fs)" % elapsed)


def test_criterion_03_torus_knot_braids():
    """braid coefficient of sigma_1^k on the 2-punctured disc is k/2."""
    start = time.monotonic()
    tri = standard_triangulation(SurfaceSpec(0, ("C",), 2))
    for k in range(1, 6):
        w = MappingClassWord(tri, [Generator.braid(1, k)])
        assert braid_fdtc(w, "C").value == Fraction(k, 2), k
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print("PASS criterion 3: sigma_1^k -> k/2 for k=1..5 (%.2fs)" % elapsed)


def test_criterion_04_quasimorphism_laws():
    """Homogeneity, conjugation invariance and the boundary shift on 50
    random words; defect <= 1 on 50 random pairs."""
    tri, words = _random_torus_words(50, 6, seed=2024)
    rng = random.Random(77)
    tb = MappingClassWord(tri, [Generator.boundary("S", 1)])
    values = []
    for w in words:
        c = fdtc_exact(w, "S").value
        values.append(c)
        assert fdtc_exact(w.power(2), "S").value == 2 * c
        assert fdtc_exact(w.invert(), "S").value == -c
        u = words[rng.randrange(len(words))]
        conj = u.compose(w).compose(u.invert())
        assert fdtc_exact(conj, "S").value == c
        assert fdtc_exact(tb.compose(w), "S").value == 1 + c
    for _ in range(50):
        i, j = rng.randrange(len(words)), rng.randrange(len(words))
        cij = fdtc_exact(words[i].compose(words[j]), "S").value
        assert abs(cij - values[i] - values[j]) <= 1
    print("PASS criterion 4: homogeneity/conjugation/shift on 50 words, "
          "defect <= 1 on 50 pairs")


def test_criterion_05_interval_soundness():
    """For every criterion-4 word, probe arc and N in 1..10 the exact
    value lies in the bracketing interval; the bracket has width exactly
    1/N (collapsing to the point M/N when periodicity is detected)."""
    tri, words = _random_torus_words(50, 6, seed=2024)
    arcs = enumerate_arcs(tri, "S", 6)  # every arc crossing <= 4 interior
    assert arcs
    for w in words:
        c = fdtc_exact(w, "S").value
        for gamma in arcs:
            for N in range(1, 11):
                iv = key_lemma_interval(w, "S", gamma, N)
                assert iv.contains(c), (w.to_json(), N)
                if iv.is_point:
                    assert (iv.lo * N).denominator == 1
                else:
                    assert iv.width() == Fraction(1, N)
    print("PASS criterion 5: key-lemma brackets sound, width 1/N "
          "(50 words x %d arcs x N<=10)" % len(arcs))


def test_criterion_06_farey_oracle():
    """Bounded-denominator search agrees with brute force on 1000
    random intervals; narrow windows are never ambiguous."""
    rng = random.Random(555)

    def brute(iv, D):
        out = set()
        for q in range(1, D + 1):
            p = (iv.lo * q).__floor__() - 1
            while Fraction(p, q) <= iv.hi:
                if iv.contains(Fraction(p, q)):
                    out.add(Fraction(p, q))
                p += 1
        return sorted(out)

    for _ in range(1000):
        a = Fraction(rng.randint(-100, 100), rng.randint(1, 30))
        b = a + Fraction(rng.randint(0, 60), rng.randint(1, 30))
        if a == b:
            iv = RationalInterval(a, b, True, True)
        else:
            iv = RationalInterval(a, b, bool(rng.getrandbits(1)),
                                  bool(rng.getrandbits(1)))
        D = rng.randint(1, 12)
        assert bounded_denominator_candidates(iv, D) == brute(iv, D)

    for _ in range(300):
        D = rng.randint(2, 12)
        q = rng.randint(1, D)
        x = Fraction(rng.randint(-5 * q, 5 * q), q)
        gap = Fraction(1, D * (D - 1))
        eps = gap * Fraction(rng.randint(1, 99), 100)
        lo = x - eps * Fraction(rng.randint(0, 100), 100)
        iv = RationalInterval(lo, lo + eps, True, True)
        val, err = unique_bounded_denominator(iv, D)
        assert err is None and val == x, (iv.lo, iv.hi, D)
    print("PASS criterion 6: Farey search matches brute force on 1000 "
          "intervals; narrow windows unambiguous")


def test_criterion_07_ceiling_infimum_oracle():
    """Closed-form infimum of the averaged estimates equals brute force
    over m <= 10^4 on 500 random instances, both parities."""

    def brute_inf(count, n, m_max=10 ** 4):
        if n % 2:
            dnum, dden = (n - 1) ** 2, 4 * n * n
        else:
            dnum, dden = n - 2, 4 * n
        best_num, best_den = None, None
        for m in range(1, m_max + 1):
            x = count * m * dden - dnum * n
            num = -((-x) // (n * dden))
            if best_num is None or num * best_den < best_num * m:
                best_num, best_den = num, m
        return Fraction(best_num, best_den)

    rng = random.Random(314)
    odd = even = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        count = rng.randint(0, 40)
        assert foliation.ceiling_average_infimum(count, n) == \
            brute_inf(count, n), (count, n)
        if n % 2:
            odd += 1
        else:
            even += 1
    assert odd and even
    print("PASS criterion 7: infimum closed form == brute force m<=1e4 "
          "on 500 instances (%d odd, %d even)" % (odd, even))


def test_criterion_08_slope_model_oracle():
    """The compiled twist action on the one-holed torus matches the
    integer matrix model on homology, and geometric intersection numbers
    equal |ps - qr|, on 1000 random words of length <= 10."""
    start = time.monotonic()
    tri = _torus()
    ta = engine.twist_encoding(tri, TORUS_A)
    tb = engine.twist_encoding(tri, TORUS_B)
    MA = ((1, 1), (0, 1))
    MB = ((1, 0), (-1, 1))

    def minv(m):
        return ((m[0][0], -m[0][1]), (-m[1][0], m[1][1]))

    def mmul(m, n):
        return (
            (m[0][0] * n[0][0] + m[0][1] * n[1][0],
             m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0],
             m[1][0] * n[0][1] + m[1][1] * n[1][1]),
        )

    def mvec(m, v):
        return (m[0][0] * v[0] + m[0][1] * v[1],
                m[1][0] * v[0] + m[1][1] * v[1])

    def det(u, v):
        return abs(u[0] * v[1] - u[1] * v[0])

    ca = NormalCoordinates(tri, TORUS_A)
    cb = NormalCoordinates(tri, TORUS_B)
    va, vb = (1, 0), (0, 1)
    rng = random.Random(808)
    for _ in range(1000):
        L = rng.randint(1, 10)
        enc = engine.Encoding(())
        M = ((1, 0), (0, 1))
        for _ in range(L):
            name, p = rng.choice([("a", 1), ("a", -1), ("b", 1), ("b", -1)])
            e = ta if name == "a" else tb
            m = MA if name == "a" else MB
            if p < 0:
                e, m = e.inverted(), minv(m)
            enc = e + enc
            M = mmul(M, m)
        ia = NormalCoordinates(tri, enc.forward(TORUS_A))
        ib = NormalCoordinates(tri, enc.forward(TORUS_B))
        pa, pb = mvec(M, va), mvec(M, vb)
        assert geometric_intersection(ia, ca) == det(pa, va)
        assert geometric_intersection(ia, cb) == det(pa, vb)
        assert geometric_intersection(ib, ca) == det(pb, va)
        assert geometric_intersection(ib, cb) == det(pb, vb)
        assert geometric_intersection(ia, ib) == det(pa, pb) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print("PASS criterion 8: slope model matched on 1000 words "
          "(%.2fs)" % elapsed)


def _valid_graphs():
    from test_foliation import (annulus_graph, closed_sphere_graph,
                                closed_torus_graph)
    return [trivial_disc_graph(), closed_torus_graph(),
            closed_sphere_graph(), annulus_graph()] + \
        [overtwisted_disc_graph(k) for k in range(1, 7)]


def test_criterion_09_foliation_validators():
    """Singularity-count identities on the standard unknot disc, and a
    corruption sweep: each single-field corruption of 10 valid graphs
    is flagged."""
    counts = foliation.SingularityCounts(2, 0, 1, 0)
    assert foliation.self_linking(counts) == -1
    assert counts.euler_characteristic() == 1

    graphs = _valid_graphs()
    assert len(graphs) == 10
    flagged = 0
    for g in graphs:
        assert foliation.validate_graph(g) == []
        corruptions = [
            replace(g, surface=foliation.SurfaceTopology(
                g.surface.genus + 1, g.surface.boundary_count)),
            replace(g, surface=foliation.SurfaceTopology(
                g.surface.genus, g.surface.boundary_count + 1)),
            replace(
                g, singular_leaf_incidence=g.singular_leaf_incidence[:-1]),
            replace(
                g, singular_leaf_incidence=g.singular_leaf_incidence
                + g.singular_leaf_incidence[-1:]),
            replace(g, c_circles_essential=True),
            replace(
                g, hyperbolic_points=g.hyperbolic_points[:-1]
                + (replace(g.hyperbolic_points[-1],
                                       region_type="cc"),)),
            replace(
                g, elliptic_points=g.elliptic_points[:-1]
                + (replace(g.elliptic_points[-1], sign=2),)),
        ]
        for bad in corruptions:
            diags = foliation.validate_graph(bad)
            assert diags, bad
            flagged += 1
    print("PASS criterion 9: sl(unknot disc) = -1; %d corruptions of 10 "
          "graphs all flagged" % flagged)


def test_criterion_10_decision_criterion_table():
    """30 hand-built assignments exercising every branch of the five
    decision operations, with outcomes fixed from the criteria."""
    A = lambda c, **kw: topology.CoefficientAssignment(c, **kw)
    F = Fraction
    rows = []
    add = rows.append

    # irreducibility: both firing routes, boundary cases, blocking entry
    add((topology.irreducibility_verdict, (A({"C1": F(7, 2), "C2": -4}),),
         {}, "Irreducible"))
    add((topology.irreducibility_verdict,
         (A({"S": F(5, 4)}, connected_boundary=True),), {}, "Irreducible"))
    add((topology.irreducibility_verdict, (A({"C1": 3}),), {},
         "Inconclusive"))
    add((topology.irreducibility_verdict,
         (A({"S": 1}, connected_boundary=True),), {}, "Inconclusive"))
    add((topology.irreducibility_verdict, (A({"C1": 100, "C2": 2}),), {},
         "Inconclusive"))
    add((topology.irreducibility_verdict,
         (A({"C1": 4, "C2": -4}, mode="braid"),), {}, "Irreducible"))

    # atoroidality: both size routes, tight route, literal one-sidedness,
    # type blocking
    add((topology.atoroidality_verdict,
         (A({"C1": F(9, 2), "C2": 5}), "pseudoAnosov"), {},
         "IrreducibleAndAtoroidal"))
    add((topology.atoroidality_verdict,
         (A({"S": F(3, 2)}, connected_boundary=True), "periodic"), {},
         "IrreducibleAndAtoroidal"))
    add((topology.atoroidality_verdict,
         (A({"C1": F(5, 2), "C2": 3}), "pseudoAnosov"), {"tight": True},
         "Atoroidal"))
    add((topology.atoroidality_verdict,
         (A({"C1": F(-5, 2), "C2": 3}), "pseudoAnosov"), {"tight": True},
         "Inconclusive"))
    add((topology.atoroidality_verdict,
         (A({"C1": F(5, 2), "C2": 3}), "pseudoAnosov"), {"tight": False},
         "Inconclusive"))
    add((topology.atoroidality_verdict, (A({"C1": 100}), "reducible"), {},
         "Inconclusive"))
    add((topology.atoroidality_verdict, (A({"C1": 100}), "unknown"), {},
         "Inconclusive"))
    add((topology.atoroidality_verdict, (A({"C1": 4}), "pseudoAnosov"), {},
         "Inconclusive"))

    # geometry: three conclusions via both hypothesis routes, the
    # periodic special case, blockers
    add((topology.geometry_verdict,
         (A({"S": F(3, 2)}, connected_boundary=True), "pseudoAnosov"), {},
         "Hyperbolic"))
    add((topology.geometry_verdict, (A({"C1": 5, "C2": -6}), "reducible"),
         {}, "Toroidal"))
    add((topology.geometry_verdict, (A({"C1": 5, "C2": -6}), "periodic"),
         {}, "SeifertFibered"))
    add((topology.geometry_verdict,
         (A({"S": -2}, connected_boundary=True), "reducible"), {},
         "Toroidal"))
    add((topology.geometry_verdict, (A({"C1": F(1, 2)}), "periodic"), {},
         "SeifertFibered"))
    add((topology.geometry_verdict, (A({"C1": 0}), "periodic"), {},
         "Inconclusive"))
    add((topology.geometry_verdict, (A({"C1": 100}), "unknown"), {},
         "Inconclusive"))
    add((topology.geometry_verdict, (A({"C1": 2, "C2": 2}), "pseudoAnosov"),
         {}, "Inconclusive"))
    add((topology.geometry_verdict,
         (A({"C1": 5}, mode="braid"), "pseudoAnosov"), {}, "Hyperbolic"))

    # stabilization: both routes, both boundary cases
    add((topology.stabilization_obstruction,
         (A({"S": F(3, 4)}, connected_boundary=True),), {},
         "NotAStabilization"))
    add((topology.stabilization_obstruction,
         (A({"C1": 2, "C2": F(-3, 2)}),), {}, "NotAStabilization"))
    add((topology.stabilization_obstruction,
         (A({"S": F(1, 2)}, connected_boundary=True),), {}, "Inconclusive"))
    add((topology.stabilization_obstruction, (A({"C1": 2, "C2": 1}),), {},
         "Inconclusive"))

    assert len(rows) >= 27
    for (op, args, kwargs, expect) in rows:
        got = op(*args, **kwargs)
        assert got.conclusion == expect, (op.__name__, args, got)

    # genus bounds: every branch, plus the knot lower bound
    assert topology.braid_genus_bounds(1).upper == 3
    assert topology.braid_genus_bounds(-2, k_intersections=4).upper == 6
    assert topology.braid_genus_bounds(-6, k_intersections=12).upper == 6
    assert topology.braid_genus_bounds(
        0, braid_index=3, connected_boundary=True).upper == 1
    assert topology.braid_genus_bounds(
        -1, k_intersections=3, braid_index=2,
        connected_boundary=True).upper == F(3, 2)
    assert topology.genus_lower_bound(9) == 3
    total = len(rows) + 6
    print("PASS criterion 10: %d decision rows match the expected "
          "conclusions" % total)


def test_criterion_11_overtwisted_disc_checker():
    """The one-negative-elliptic-point disc certificate is accepted and
    reports non-right-veering; one mutation per certificate condition is
    rejected."""
    g = overtwisted_disc_graph(3)
    out = foliation.transverse_ot_disc_check(g)
    assert out["valid"] and out["non_right_veering"]
    assert "non-right-veering" in out["conclusion"]

    # condition 1: no negative elliptic point left -> the negative graph
    # degenerates
    m1 = replace(g, elliptic_points=tuple(
        replace(v, sign=1) if v.id == "v-" else v
        for v in g.elliptic_points))
    out1 = foliation.transverse_ot_disc_check(m1)
    assert not out1["valid"]
    assert any("not a tree" in v for v in out1["violations"])

    # condition 2: c-circle leaves appear
    m2 = replace(g, c_circle_presence=True)
    out2 = foliation.transverse_ot_disc_check(m2)
    assert not out2["valid"]
    assert out2["violations"] == ["foliation contains c-circle leaves"]

    # condition 3: reroute one separatrix so the positive graph is no
    # longer a circle (the other two conditions stay intact)
    inc = list(g.singular_leaf_incidence)
    inc[inc.index(("h3", "w1"))] = ("h3", "w3")
    m3 = replace(g, singular_leaf_incidence=tuple(inc))
    out3 = foliation.transverse_ot_disc_check(m3)
    assert not out3["valid"]
    assert out3["violations"] == ["positive separatrix graph is not a circle"]
    print("PASS criterion 11: overtwisted-disc certificate accepted; all "
          "three condition mutations rejected")
