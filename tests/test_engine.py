import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdtc.errors import ComputationError, CurveError
from fdtc import curves, engine
from fdtc.fdtc import key_lemma_interval
from fdtc.mcg import Generator, MappingClassWord
from fdtc.surface import SurfaceSpec, standard_triangulation
from fdtc.curves import (
    NormalCoordinates,
    boundary_drag,
    boundary_parallel_curve,
    enumerate_arcs,
    is_matching,
)
from conftest import (
    GENUS2_CHAIN, GENUS3_CHAIN, TORUS_A, TORUS_B, TWO_HOLED_A, TWO_HOLED_B,
    TWO_HOLED_C, apply_arc,
)


def _probe_weights(tri, bound=6):
    out = []
    for lab in sorted(tri.base_edge_of):
        out.extend(g.coords.weights for g in enumerate_arcs(tri, lab, bound))
    return out


def _equal_on_probes(tri, enc1, enc2, bound=6):
    return all(enc1.forward(w) == enc2.forward(w)
               for w in _probe_weights(tri, bound))


class TestFlips:
    def test_flip_self_inverse(self, torus_tri):
        interior = [e for e in range(torus_tri.edge_count)
                    if not torus_tri.is_boundary_edge(e)]
        random.seed(7)
        probes = [TORUS_A, TORUS_B] + _probe_weights(torus_tri, 6)
        for e in interior:
            _, step = engine.flip(torus_tri, e)
            once = engine.Encoding([step])
            for w in probes:
                assert once.forward(once.forward(w)) == tuple(w)

    def test_flip_preserves_matching(self, torus_tri):
        interior = [e for e in range(torus_tri.edge_count)
                    if not torus_tri.is_boundary_edge(e)]
        for e in interior:
            tri2, step = engine.flip(torus_tri, e)
            img = engine.Encoding([step]).forward(TORUS_A)
            assert is_matching(NormalCoordinates(tri2, img))

    def test_flip_boundary_edge_rejected(self, torus_tri):
        e = torus_tri.base_edge_of["S"]
        with pytest.raises(Exception):
            engine.flip(torus_tri, e)


class TestTwistEncoding:
    def test_twist_fixes_its_curve(self, torus_tri):
        enc = engine.twist_encoding(torus_tri, TORUS_A)
        assert enc.forward(TORUS_A) == TORUS_A

    def test_inverse_twist(self, torus_tri):
        enc = engine.twist_encoding(torus_tri, TORUS_A)
        inv = engine.twist_encoding(torus_tri, TORUS_A, -1)
        for w in _probe_weights(torus_tri):
            assert inv.forward(enc.forward(w)) == w

    def test_braid_relation(self, torus_tri):
        # T_a T_b T_a = T_b T_a T_b when i(a, b) = 1
        ta = engine.twist_encoding(torus_tri, TORUS_A)
        tb = engine.twist_encoding(torus_tri, TORUS_B)
        lhs = ta + tb + ta
        rhs = tb + ta + tb
        assert _equal_on_probes(torus_tri, lhs, rhs)

    def test_chain_relation(self, torus_tri):
        # (T_a T_b)^6 = boundary twist on the one-holed torus
        ta = engine.twist_encoding(torus_tri, TORUS_A)
        tb = engine.twist_encoding(torus_tri, TORUS_B)
        word = engine.Encoding(())
        for _ in range(6):
            word = word + tb + ta  # rightmost acts first
        bp = boundary_parallel_curve(torus_tri, "S").weights
        tboundary = engine.twist_encoding(torus_tri, bp)
        assert _equal_on_probes(torus_tri, word, tboundary, bound=7)

    def test_empty_curve_rejected(self, torus_tri):
        with pytest.raises(CurveError):
            engine.twist_encoding(torus_tri, (0,) * torus_tri.edge_count)

    def test_puncture_parallel_twist_trivial(self, disc2_tri):
        from fdtc.curves import puncture_link_curve
        vid = disc2_tri.puncture_vertices[0]
        link = puncture_link_curve(disc2_tri, vid)
        enc = engine.twist_encoding(disc2_tri, link.weights)
        for w in _probe_weights(disc2_tri, 8):
            assert enc.forward(w) == w


class TestBoundaryTwistDualRoute:
    """The boundary twist can be computed two ways: shortening the
    boundary-parallel curve into annular position, or reconstructing the
    mapping class from endpoint drags.  They must agree."""

    @pytest.mark.parametrize("fixture", ["torus_tri", "disc2_tri"])
    def test_routes_agree(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        for lab in sorted(tri.base_edge_of):
            bp = boundary_parallel_curve(tri, lab).weights
            enc = engine.twist_encoding(tri, bp)
            for g in enumerate_arcs(tri, lab, 7):
                dragged = boundary_drag(g, lab, 1)
                assert enc.forward(g.coords.weights) == dragged.coords.weights

    @pytest.mark.parametrize("genus,punctures", [(1, 1), (0, 4), (2, 1)])
    def test_punctured_needs_no_probe_search(self, genus, punctures,
                                             monkeypatch):
        # with a puncture the boundary-parallel curve has an annular
        # position, so the boundary letter is an ordinary twist
        def fail(*args, **kwargs):
            raise AssertionError("probe-image search reached")

        monkeypatch.setattr(engine, "encoding_from_probe_images", fail)
        tri = standard_triangulation(SurfaceSpec(genus, ("S",), punctures))
        enc = MappingClassWord(tri, [Generator.boundary("S")]).encoding()
        probes = enumerate_arcs(tri, "S", 8)
        assert probes
        for g in probes:
            dragged = boundary_drag(g, "S", engine.POSITIVE_DRAG_DIRECTION)
            assert enc.forward(g.coords.weights) == dragged.coords.weights

    def test_two_boundary_components_commute(self, two_holed_torus_tri):
        tri = two_holed_torus_tri
        e1 = engine.twist_encoding(
            tri, boundary_parallel_curve(tri, "C1").weights)
        e2 = engine.twist_encoding(
            tri, boundary_parallel_curve(tri, "C2").weights)
        assert _equal_on_probes(tri, e1 + e2, e2 + e1, bound=7)


def _moves_some(tri, enc, bound):
    return any(enc.forward(w) != w for w in _probe_weights(tri, bound))


class TestHalfTwists:
    # each check also asserts that the pair twist or the boundary twist
    # moves a probe, so that it cannot pass on a family nothing moves

    def test_square_is_pair_twist(self, disc2_tri):
        sigma = engine.half_twist_encoding(disc2_tri, 1)
        pair = engine.twist_encoding(
            disc2_tri, engine.pair_curve_weights(disc2_tri, 1))
        assert _moves_some(disc2_tri, pair, 8)
        assert _equal_on_probes(disc2_tri, sigma + sigma, pair, bound=8)

    def test_braid_relation(self, disc3_tri):
        s1 = engine.half_twist_encoding(disc3_tri, 1)
        s2 = engine.half_twist_encoding(disc3_tri, 2)
        for i in (1, 2):
            pair = engine.twist_encoding(
                disc3_tri, engine.pair_curve_weights(disc3_tri, i))
            assert _moves_some(disc3_tri, pair, 8)
        assert _equal_on_probes(disc3_tri, s1 + s2 + s1, s2 + s1 + s2,
                                bound=8)

    def test_fundamental_relation(self, disc3_tri):
        # (sigma1 sigma2)^3 = boundary twist on the 3-punctured disc
        s1 = engine.half_twist_encoding(disc3_tri, 1)
        s2 = engine.half_twist_encoding(disc3_tri, 2)
        word = engine.Encoding(())
        for _ in range(3):
            word = word + s2 + s1
        bp = boundary_parallel_curve(disc3_tri, "C").weights
        tb = engine.twist_encoding(disc3_tri, bp)
        assert _moves_some(disc3_tri, tb, 8)
        assert _equal_on_probes(disc3_tri, word, tb, bound=8)

    def test_inverse(self, disc2_tri):
        s = engine.half_twist_encoding(disc2_tri, 1)
        si = engine.half_twist_encoding(disc2_tri, 1, -1)
        pair = engine.twist_encoding(
            disc2_tri, engine.pair_curve_weights(disc2_tri, 1))
        assert _moves_some(disc2_tri, pair, 8)
        for w in _probe_weights(disc2_tri, 8):
            assert si.forward(s.forward(w)) == w

    def test_power_conjugates_once(self, disc3_tri):
        # sigma_1^6 is conj, six half twists in the annular position, then
        # conj^-1, not six copies of the conjugated half twist
        conj, _, _ = engine.shorten_curve(
            disc3_tri, engine.pair_curve_weights(disc3_tri, 1))
        s1 = engine.half_twist_encoding(disc3_tri, 1)
        s6 = engine.half_twist_encoding(disc3_tri, 1, 6)
        assert len(s6.steps) == 2 * len(conj.steps) + 18 == 30
        for w in _probe_weights(disc3_tri, 8):
            assert s6.forward(w) == _replay(s1, 6, w)


# (genus, boundary labels, punctures, probe bound), with a bound at which
# every pair twist moves some probe arc
BRAID_DISCS = [(0, ("C",), 3, 8), (0, ("C",), 4, 8), (0, ("C",), 5, 10),
               (0, ("C",), 6, 10)]


def _surface_id(p):
    return "g%d_d%d_n%d" % (p[0], len(p[1]), p[2])


@pytest.fixture(scope="module", ids=_surface_id,
                params=BRAID_DISCS + [(1, ("C1", "C2"), 3, 14)])
def braid_surface(request):
    g, labels, n, bound = request.param
    tri = standard_triangulation(SurfaceSpec(g, labels, n))
    sigmas = [engine.half_twist_encoding(tri, i) for i in range(1, n)]
    return tri, sigmas, bound


class TestBraidGenerators:
    """Every sigma_i on punctured discs and on a punctured two-holed
    torus satisfies the defining laws of the braid group, on probe
    families that the twists involved actually move."""

    def test_square_is_pair_twist(self, braid_surface):
        tri, sigmas, bound = braid_surface
        for i, s in enumerate(sigmas, 1):
            cw = engine.pair_curve_weights(tri, i)
            assert s.forward(cw) == cw
            pair = engine.twist_encoding(tri, cw)
            assert _moves_some(tri, pair, bound), i
            assert _equal_on_probes(tri, s + s, pair, bound), i

    def test_relations(self, braid_surface):
        tri, sigmas, bound = braid_surface
        for i, a in enumerate(sigmas):
            for j, b in enumerate(sigmas[i + 1:], i + 1):
                if j == i + 1:
                    assert _equal_on_probes(tri, a + b + a, b + a + b, bound)
                else:
                    assert _equal_on_probes(tri, a + b, b + a, bound)

    @pytest.mark.parametrize("braid_surface", BRAID_DISCS, ids=_surface_id,
                             indirect=True)
    def test_full_twist_is_boundary_drag(self, braid_surface):
        # on a disc (sigma_1 ... sigma_{n-1})^n is the boundary twist
        tri, sigmas, bound = braid_surface
        full = sum(sigmas, engine.Encoding(())).power(len(sigmas) + 1)
        probes = enumerate_arcs(tri, "C", bound)
        assert probes
        for g in probes:
            dragged = boundary_drag(g, "C", engine.POSITIVE_DRAG_DIRECTION)
            assert full.forward(g.coords.weights) == dragged.coords.weights


# a closed curve on the standard S_{3,1} triangulation that no arc of
# weight at most 16 crosses, and a curve meeting it once
GENUS3_DEEP = tuple(int(e in (0, 7)) for e in range(17))
GENUS3_LINK = (0, 1, 0, 1, 1, 1, 0, 1, 1, 2, 2, 1, 1, 2, 1, 0, 1)


class TestTwistHandedness:
    def test_conjugate_of_deep_twist(self):
        # T_{h(a)} = h T_a h^-1, where h(a) is crossed by short arcs
        tri = standard_triangulation(SurfaceSpec(3, ("S",)))
        ta = engine.twist_encoding(tri, GENUS3_DEEP)
        assert not _moves_some(tri, ta, 16)
        h = engine.twist_encoding(tri, GENUS3_LINK)
        tha = engine.twist_encoding(tri, h.forward(GENUS3_DEEP))
        assert _moves_some(tri, tha, 8)
        assert _equal_on_probes(tri, h.inverted() + ta + h, tha, bound=8)


def _no_probe_search(*args, **kwargs):
    raise AssertionError("probe-image search reached")


# (genus, boundary labels, punctures): every boundary component of these
# standard triangulations is a single edge
ROTATION_SURFACES = [
    (1, ("S",), 0), (2, ("S",), 0), (3, ("S",), 0), (4, ("S",), 0),
    (1, ("C1", "C2"), 0), (2, ("C1", "C2"), 0), (0, ("C1", "C2", "C3"), 0),
    (0, ("C1", "C2"), 0), (1, ("S",), 1), (1, ("S",), 2), (2, ("S",), 1),
    (1, ("C1", "C2"), 1),
]


class TestBoundaryRotation:
    """Boundary letters of single-edge components are built by turning
    the component's marked point once around it: no search."""

    @pytest.fixture(autouse=True)
    def no_probe_search(self, monkeypatch):
        monkeypatch.setattr(engine, "encoding_from_probe_images",
                            _no_probe_search)

    @pytest.mark.parametrize("spec", ROTATION_SURFACES, ids=_surface_id)
    def test_is_collar_drag(self, spec):
        tri = standard_triangulation(SurfaceSpec(*spec))
        probes = [g for lab in sorted(tri.base_edge_of)
                  for g in enumerate_arcs(tri, lab, 10)]
        assert probes
        for lab in sorted(tri.base_edge_of):
            for sign in (1, -1):
                enc = engine.boundary_twist_encoding(tri, lab, sign)
                for g in probes:
                    dragged = boundary_drag(
                        g, lab, sign * engine.POSITIVE_DRAG_DIRECTION)
                    assert enc.forward(g.coords.weights) == \
                        dragged.coords.weights, (lab, sign)
            # a twist along the boundary-parallel curve is the same letter
            bp = boundary_parallel_curve(tri, lab).weights
            twist = engine.twist_encoding(tri, bp)
            enc = engine.boundary_twist_encoding(tri, lab)
            assert (twist.steps, twist.perm) == (enc.steps, enc.perm)
        # nor does any braid letter
        for i in range(1, tri.surface.puncture_count):
            engine.half_twist_encoding(tri, i)

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    def test_flip_count(self, genus):
        tri = standard_triangulation(SurfaceSpec(genus, ("S",)))
        enc = engine.boundary_twist_encoding(tri, "S")
        assert len(enc.steps) == 12 * genus - 6

    def test_commutes_with_twist_words_on_genus3(self):
        tri = standard_triangulation(SurfaceSpec(3, ("S",)))
        tb = engine.boundary_twist_encoding(tri, "S")
        twists = [engine.twist_encoding(tri, c, p)
                  for c in GENUS3_CHAIN + (GENUS3_LINK,) for p in (1, -1)]
        # the first two chain curves are crossed by no short probe arc;
        # words mix them with curves that are
        assert all(_moves_some(tri, t, 12) for t in twists[4:])
        rng = random.Random(3)
        for _ in range(20):
            word = sum(rng.choices(twists, k=rng.randint(1, 6)),
                       engine.Encoding(()))
            assert _equal_on_probes(tri, tb + word, word + tb, bound=12)

    @pytest.mark.parametrize("spec", [(1, ("S",), 0), (1, ("C1", "C2"), 0),
                                      (0, ("C",), 1), (0, ("C",), 3),
                                      (0, ("C",), 0)], ids=_surface_id)
    def test_unknown_label_raises(self, spec):
        tri = standard_triangulation(SurfaceSpec(*spec))
        with pytest.raises(CurveError, match="'X'"):
            engine.boundary_twist_encoding(tri, "X")

    def test_bare_disc_is_trivial(self):
        tri = standard_triangulation(SurfaceSpec(0, ("C",)))
        enc = engine.boundary_twist_encoding(tri, "C", 3)
        assert (enc.steps, enc.perm) == ((), None)


@pytest.mark.parametrize("genus,bound", [(1, 8), (2, 6)])
def test_rotation_matches_probe_search(genus, bound):
    # the probe-image search, fed the collar drags of the probe arcs,
    # is the reference; both must act alike on heavier arcs too
    tri = standard_triangulation(SurfaceSpec(genus, ("S",)))
    probes = enumerate_arcs(tri, "S", bound)
    ref = engine.encoding_from_probe_images(
        tri, [g.coords.weights for g in probes],
        [boundary_drag(g, "S", engine.POSITIVE_DRAG_DIRECTION).coords.weights
         for g in probes])
    enc = engine.boundary_twist_encoding(tri, "S")
    assert _equal_on_probes(tri, enc, ref, bound=10)


class TestShortenCurve:
    def test_shortens_reference(self, torus_tri):
        conj, tri2, w2 = engine.shorten_curve(torus_tri, TORUS_A)
        assert sum(w2) == 2
        # conjugator maps the curve onto its short representative
        assert tuple(conj.forward(TORUS_A)) == tuple(w2)

    def test_roundtrip(self, torus_tri):
        conj, tri2, w2 = engine.shorten_curve(torus_tri, TORUS_B)
        assert conj.inverted().forward(w2) == TORUS_B

    def test_heavy_curve_memory(self, torus_tri):
        # the search keeps one parent pointer per state, not its whole path
        t1000 = engine.twist_encoding(torus_tri, TORUS_A, 1000)
        heavy = t1000.forward(TORUS_B)
        assert sum(heavy) == 3000
        tracemalloc.start()
        try:
            conj, _, w2 = engine.shorten_curve(torus_tri, heavy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert conj.forward(heavy) == w2
        assert peak < 12 * 2 ** 20

    def test_budget_error_names_cap(self, torus_tri, monkeypatch):
        monkeypatch.setattr(engine, "_SEARCH_CAP", 5)
        heavy = engine.twist_encoding(torus_tri, TORUS_A, 10).forward(TORUS_B)
        with pytest.raises(ComputationError,
                           match=r"after 5 states \(cap 5\)"):
            engine.shorten_curve(torus_tri, heavy)

    def test_probe_budget_error_names_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "_PROBE_SEARCH_CAP", 5)
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        probes = enumerate_arcs(tri, "S", 8)
        with pytest.raises(ComputationError,
                           match=r"after 5 states \(cap 5\)"):
            engine.encoding_from_probe_images(
                tri, [g.coords.weights for g in probes],
                [boundary_drag(g, "S", 1).coords.weights for g in probes])


class TestLetterCache:
    def test_hit_skips_checks_and_search(self, monkeypatch):
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        first = engine.twist_encoding(tri, TORUS_A, 3)

        def fail(*args, **kwargs):
            raise AssertionError("compiled again")

        monkeypatch.setattr(curves, "is_matching", fail)
        monkeypatch.setattr(engine, "shorten_curve", fail)
        again = engine.twist_encoding(tri, TORUS_A, 3)
        assert (again.steps, again.perm) == (first.steps, first.perm)
        assert engine.twist_encoding(tri, TORUS_A, 0).steps == ()

    def test_word_compiles_each_letter_once(self, monkeypatch):
        # a word composes its letters' parts itself, past the three
        # *_encoding entry points; a fresh word of letters already
        # compiled, and its powers, compile nothing
        compiled = []
        compile_letter = engine._compile_letter

        def counted(tri, kind, x):
            compiled.append((kind, x))
            return compile_letter(tri, kind, x)

        monkeypatch.setattr(engine, "_compile_letter", counted)
        torus = standard_triangulation(SurfaceSpec(1, ("S",)))
        disc = standard_triangulation(SurfaceSpec(0, ("C",), 3))
        words = [
            (torus, [Generator.twist(TORUS_A), Generator.boundary("S"),
                     Generator.twist(TORUS_B, -1)]),
            (disc, [Generator.braid(1), Generator.braid(2, -1)]),
        ]
        for tri, gens in words:
            MappingClassWord(tri, gens).encoding()
        assert sorted(kind for kind, _ in compiled) == [
            "boundary", "braid", "braid", "twist", "twist"]
        compiled.clear()
        for tri, gens in words:
            w = MappingClassWord(tri, [g.inverted() for g in gens] * 2)
            w.encoding(), w.power(7).encoding(), w.power(-3).encoding()
        assert compiled == []

    def test_power_zero_checks_matching(self, torus_tri):
        with pytest.raises(CurveError):
            engine.twist_encoding(torus_tri, (1, 0, 0, 0, 0), 0)
        # a multicurve is only rejected when a twist is compiled
        double = tuple(2 * x for x in TORUS_A)
        assert engine.twist_encoding(torus_tri, double, 0).steps == ()
        with pytest.raises(CurveError):
            engine.twist_encoding(torus_tri, double)


def _letters(tri, fixture):
    """Single-letter encodings to the powers +-1: twists along the
    surface's reference curves and around every boundary, and half
    twists on punctured discs."""
    curves_ = SURFACES[fixture] + tuple(
        boundary_parallel_curve(tri, lab).weights
        for lab in sorted(tri.base_edge_of))
    out = [engine.twist_encoding(tri, c, p) for c in curves_ for p in (1, -1)]
    for i in range(1, tri.surface.puncture_count):
        out += [engine.half_twist_encoding(tri, i, p) for p in (1, -1)]
    return out


def _period(perm):
    p, k = perm, 1
    while p is not None:
        p, k = (engine.Encoding((), p) + engine.Encoding((), perm)).perm, k + 1
    return k


def _replay(enc, k, w):
    step = enc if k >= 0 else enc.inverted()
    for _ in range(abs(k)):
        w = step.forward(w)
    return w


# fixture name -> reference twist curves on it
SURFACES = {
    "torus_tri": (TORUS_A, TORUS_B),
    "two_holed_torus_tri": (TWO_HOLED_A, TWO_HOLED_B, TWO_HOLED_C),
    "disc3_tri": (),
}


class TestEncodingAlgebra:
    """Composition, inversion and powers push renamings to the end; each
    must agree with replaying its parts one after another."""

    @pytest.mark.parametrize("fixture", SURFACES)
    def test_letter_powers(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        probes = _probe_weights(tri, 7)
        assert len(probes) >= 8
        renamed = [e for e in _letters(tri, fixture) if e.perm is not None]
        # some letters rename edges, with a period that k = 7 goes past
        assert renamed and min(_period(e.perm) for e in renamed) < 7
        for enc in renamed:
            for k in range(-7, 8):
                pk = enc.power(k)
                assert all(pk.forward(w) == _replay(enc, k, w)
                           for w in probes)

    @pytest.mark.parametrize("fixture", SURFACES)
    def test_words(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        letters = _letters(tri, fixture)
        probes = _probe_weights(tri, 7)
        word = st.lists(st.sampled_from(range(len(letters))), max_size=4)

        def encoding(ids):
            return sum((letters[i] for i in ids), engine.Encoding(()))

        @settings(max_examples=200, deadline=None)
        @given(word, word, st.integers(-7, 7), st.sampled_from(probes))
        def check(ids1, ids2, k, w):
            e1, e2 = encoding(ids1), encoding(ids2)
            assert (e1 + e2).forward(w) == e2.forward(e1.forward(w))
            assert e1.inverted().forward(e1.forward(w)) == w
            assert e1.forward(e1.inverted().forward(w)) == w
            assert e1.power(k).forward(w) == _replay(e1, k, w)

        check()


# fixture name -> twist curves of the random words replayed on it; every
# boundary twist and braid generator of the surface joins them
WORD_SURFACES = dict(SURFACES, genus2_tri=GENUS2_CHAIN)


def _generators(tri, fixture):
    gens = [Generator.twist(c) for c in WORD_SURFACES[fixture]]
    gens += [Generator.boundary(lab) for lab in sorted(tri.base_edge_of)]
    return gens + [Generator.braid(i)
                   for i in range(1, tri.surface.puncture_count)]


def _random_words(tri, fixture):
    """Words of at most five letters, each to a power in -3..3."""
    gens = _generators(tri, fixture)
    letter = st.tuples(st.sampled_from(gens), st.integers(-3, 3))
    return st.lists(letter, max_size=5).map(lambda word: MappingClassWord(
        tri, [Generator(g.kind, p, g.curve, g.label, g.index)
              for g, p in word]))


def _textbook_forward(enc, w):
    """Replay flip by flip with the max formula, a twist run (e, x, a, c,
    k) as k copies of the flip (e, a, x, c, x) and the swap of e and x,
    then rename."""
    w = list(w)
    for step in enc.steps:
        e, a, b, c, d = step
        copies = 1
        if isinstance(step, engine.TwistRun):
            e, b, a, c, copies = step
            d = b
        for _ in range(copies):
            w[e] = max(w[a] + w[c], w[b] + w[d]) - w[e]
            assert w[e] >= 0
            if isinstance(step, engine.TwistRun):
                w[e], w[b] = w[b], w[e]
    if enc.perm is None:
        return tuple(w)
    out = [None] * len(w)
    for old, new in enumerate(enc.perm):
        out[new] = w[old]
    return tuple(out)


def _fold(encodings):
    """(steps, perm) of the encodings one after another, as a left fold:
    the script so far, then the next encoding's steps with each edge id
    read through the inverse of the renaming so far (a twist run keeps
    its count).  The reference for ``engine.compose`` and
    ``Encoding.power``."""
    steps, perm = (), None
    for enc in encodings:
        if perm is None:
            steps += enc.steps
        else:
            inv = sorted(range(len(perm)), key=perm.__getitem__)
            steps += tuple(
                engine.TwistRun(tuple(inv[x] for x in f[:4]) + f[4:])
                if isinstance(f, engine.TwistRun) else
                tuple(inv[x] for x in f) for f in enc.steps)
        if enc.perm is not None:
            perm = tuple(enc.perm[x] for x in perm) if perm else enc.perm
            if perm == tuple(range(len(perm))):
                perm = None
    return steps, perm


def _letter_encoding(tri, g):
    """The letter's own encoding, compiled alone."""
    if g.kind == "twist":
        return engine.twist_encoding(tri, g.curve, g.power)
    if g.kind == "boundary":
        return engine.boundary_twist_encoding(tri, g.label, g.power)
    return engine.half_twist_encoding(tri, g.index, g.power)


class TestReplayKernel:
    """``Encoding.forward`` against the textbook flip formula, and the
    scripts of ``compose`` and ``power`` against the left fold."""

    @pytest.mark.parametrize("fixture", WORD_SURFACES)
    def test_forward_matches_textbook_replay(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        probes = _probe_weights(tri)

        @settings(max_examples=60, deadline=None)
        @given(_random_words(tri, fixture), st.sampled_from(probes))
        def check(w, x):
            enc = w.encoding()
            assert enc.forward(x) == _textbook_forward(enc, x)

        check()

    @pytest.mark.parametrize("fixture", WORD_SURFACES)
    def test_word_script_matches_left_fold(self, fixture, request):
        tri = request.getfixturevalue(fixture)

        @settings(max_examples=60, deadline=None)
        @given(_random_words(tri, fixture))
        def check(w):
            enc = w.encoding()
            letters = [_letter_encoding(tri, g) for g in reversed(w.generators)]
            assert (enc.steps, enc.perm) == _fold(letters)

        check()

    @pytest.mark.parametrize("fixture", WORD_SURFACES)
    def test_core_powers_match_left_fold(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        for g in _generators(tri, fixture):
            MappingClassWord(tri, [g]).encoding()
        probes = _probe_weights(tri)
        for conj, core, conj_inv in tri._cache["letters"].values():
            for k in range(1, 8):
                for enc, fold in ((core.power(k), _fold([core] * k)),
                                  (core.power(-k),
                                   _fold([core.inverted()] * k))):
                    if k > 1 and core.annular_twist() is not None:
                        # one twist run stands for the k copies
                        assert len(enc.steps) == 1 and enc.perm is None
                        assert isinstance(enc.steps[0], engine.TwistRun)
                        ref = engine.Encoding(*fold)
                        assert all(enc.forward(v) == ref.forward(v)
                                   for v in map(conj.forward, probes))
                    else:
                        assert (enc.steps, enc.perm) == fold

    def test_negative_weight_raises(self, torus_tri):
        # a lone weight on the first flipped edge breaks the matching
        # conditions, and that flip sends it to 0 - 1
        enc = engine.twist_encoding(torus_tri, TORUS_A)
        w = [0] * torus_tri.edge_count
        w[enc.steps[0][0]] = 1
        with pytest.raises(ComputationError,
                           match="flip produced a negative weight"):
            enc.forward(w)

    def test_core_powers_read_nothing_through(self, torus_tri, disc3_tri,
                                              monkeypatch):
        # after its first power, a letter core repeats and cuts its kept
        # copy cycle; no power reads its flips through a renaming again
        cores = []
        for tri, fixture in ((torus_tri, "torus_tri"),
                             (disc3_tri, "disc3_tri")):
            for g in _generators(tri, fixture):
                MappingClassWord(tri, [g]).encoding()
            cores += [core for _, core, _ in tri._cache["letters"].values()]
        assert any(core.perm is not None for core in cores)
        for core in cores:
            core.power(1), core.power(-1)
        calls = []
        read_through = engine._read_through

        def counted(steps, table):
            calls.append(len(steps))
            return read_through(steps, table)

        monkeypatch.setattr(engine, "_read_through", counted)
        for core in cores:
            for k in range(1, 101):
                core.power(k), core.power(-k)
        assert calls == []


def _copies(step, k, v):
    """The weights after each of k replays of ``step``, one by one."""
    out = []
    for _ in range(k):
        v = step.forward(v)
        out.append(v)
    return out


class TestTwistRuns:
    """The k-th power of an annular twist core is one twist run, replayed
    in closed form.  It must act as the left fold of k cores, replayed
    flip by flip, on vectors wound either way around the core's curve,
    and raise the negative-weight error where that replay raises it."""

    @staticmethod
    def _twist_letters(tri, fixture):
        for g in _generators(tri, fixture):
            MappingClassWord(tri, [g]).encoding()
        out = [(x, parts) for (kind, x), parts in tri._cache["letters"].items()
               if kind == "twist" and parts[1].annular_twist() is not None]
        assert out
        return out

    @pytest.mark.parametrize("fixture", WORD_SURFACES)
    def test_matches_copy_by_copy_replay(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        gens = _generators(tri, fixture)
        starts = _probe_weights(tri) + list(WORD_SURFACES[fixture])
        rng = random.Random(fixture)
        for x, (conj, core, _) in self._twist_letters(tri, fixture):
            e, f = core.annular_twist()[:2]
            # images of probe arcs and curves under random words that twist
            # along the core's own curve m times last, carried to its
            # annular position
            vectors = []
            for m in (-40, -7, -1, 0, 3, 25):
                word = MappingClassWord(tri, [Generator.twist(x, m)] + [
                    Generator(g.kind, rng.randint(-2, 2), g.curve, g.label,
                              g.index)
                    for g in rng.sample(gens, min(2, len(gens)))])
                vectors += [conj.forward(word.encoding().forward(w))
                            for w in starts]
            for sign, step, edge in ((1, core, e), (-1, core.inverted(), f)):
                folds = [engine.Encoding(*_fold([step] * k))
                         for k in range(1, 65)]
                unwound = False
                for v in vectors:
                    for k, fold in enumerate(folds, 1):
                        assert core.power(sign * k).forward(v) == \
                            fold.forward(v)
                    # t_n shrinks, bounces and grows again within 64 copies
                    t = [v[edge]] + [w[edge] for w in _copies(step, 64, v)]
                    unwound |= any(t[n + 1] < t[n] for n in range(64)) \
                        and t[64] > t[63]
                assert unwound

    @pytest.mark.parametrize("fixture", WORD_SURFACES)
    def test_negative_weight_raises(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        rng = random.Random(fixture)
        for _, (_, core, _) in self._twist_letters(tri, fixture):
            e, f = core.annular_twist()[:2]
            # t_0 = 2j, t_1 = j and S = 0 shrink to t_3 = -j at the
            # second copy
            v = [0] * tri.edge_count
            v[e], v[f] = 10, 5
            core.power(1).forward(v)
            for k in (2, 3, 64, 10 ** 9):
                with pytest.raises(ComputationError,
                                   match="flip produced a negative weight"):
                    core.power(k).forward(v)
            # vectors that break the matching conditions raise exactly
            # where the copy-by-copy replay raises
            for _ in range(50):
                v = [rng.randint(0, 9) for _ in range(tri.edge_count)]
                for k in (*range(-10, 0), *range(1, 11)):
                    step = core if k > 0 else core.inverted()
                    try:
                        want = _copies(step, abs(k), v)[-1]
                    except ComputationError:
                        with pytest.raises(
                                ComputationError,
                                match="flip produced a negative weight"):
                            core.power(k).forward(v)
                    else:
                        assert core.power(k).forward(v) == want

    def test_power_by_core_kind(self, torus_tri, disc3_tri):
        # a twist core's power is one twist run; a boundary rotation's and
        # a half twist core's are built copy by copy, as the left fold
        twist = engine.letter_parts(torus_tri, "twist", TORUS_A, 1)[1]
        rotation = engine.letter_parts(torus_tri, "boundary", "S", 1)[1]
        half = engine.letter_parts(disc3_tri, "braid", 1, 1)[1]
        e, x, a, c = twist.annular_twist()
        for k in (2, 7, 60):
            assert twist.power(k).steps == ((e, x, a, c, k),)
            assert type(twist.power(k).steps[0]) is engine.TwistRun
            assert twist.power(k).perm is None
        assert len(rotation.steps) > 1 and len(half.steps) == 3
        for core in (rotation, half):
            assert core.annular_twist() is None
            for k in (2, 7, 60):
                pk = core.power(k)
                assert (pk.steps, pk.perm) == _fold([core] * k)
                assert all(type(step) is tuple for step in pk.steps)

    def test_core_decided_once_inverse_on_its_own(self, torus_tri):
        # the decision is kept in a slot of the encoding, and an inverse
        # makes its own: the inverse of the core (e, x, a, c) is the core
        # (x, e, a, c), and a boundary rotation's inverse is no core
        core = engine.letter_parts(torus_tri, "twist", TORUS_B, 1)[1]
        enc = engine.Encoding(core.steps, core.perm)
        assert enc._twist is False
        e, x, a, c = twist = enc.power(3).steps[0][:4]
        assert enc._twist == twist
        inv = enc.inverted()
        assert inv._twist is False
        assert inv.power(3).steps == ((x, e, a, c, 3),)
        assert inv._twist == (x, e, a, c)
        assert enc.power(-3).steps == ((x, e, a, c, 3),)
        rotation = engine.letter_parts(torus_tri, "boundary", "S", 1)[1]
        rot = engine.Encoding(rotation.steps, rotation.perm)
        rot.power(2)
        assert rot._twist is None
        assert rot.inverted()._twist is False
        assert rot.inverted().annular_twist() is None


class TestComposeParts:
    """``compose`` reads only parts with steps through the running table;
    a part that only renames still advances it."""

    def test_empty_parts(self, torus_tri, monkeypatch):
        core = engine.letter_parts(torus_tri, "twist", TORUS_A, 1)[1]
        rotation = engine.letter_parts(torus_tri, "boundary", "S", 1)[1]
        rename = engine.Encoding((), core.perm)
        empty = engine.Encoding(())
        calls = []
        read_through = engine._read_through

        def counted(steps, table):
            calls.append(len(steps))
            return read_through(steps, table)

        monkeypatch.setattr(engine, "_read_through", counted)
        probes = _probe_weights(torus_tri)
        for parts in ((rename, empty, rotation), (core, empty, rename, empty,
                                                   rotation, empty),
                      (empty, rename, core), (rotation, rename, rename)):
            calls.clear()
            enc = engine.compose(parts)
            assert (enc.steps, enc.perm) == _fold(parts)
            assert 0 not in calls
            for w in probes:
                want = w
                for part in parts:
                    want = part.forward(want)
                assert enc.forward(w) == want


class TestScriptCap:
    """Scripts longer than ``_SCRIPT_CAP`` steps are refused by name
    before they are built."""

    def test_letter_power(self, monkeypatch):
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        monkeypatch.setattr(engine, "_SCRIPT_CAP", 50)
        core = engine._letter(tri, ("boundary", "S"))[1]
        assert len(engine.boundary_twist_encoding(tri, "S", 8).steps) == 48
        with pytest.raises(ComputationError, match=(
                "script of %d flips exceeds the cap of 50" % (9 * len(core.steps)))):
            engine.boundary_twist_encoding(tri, "S", 9)
        with pytest.raises(ComputationError, match="exceeds the cap of 50"):
            engine.boundary_twist_encoding(tri, "S", -10 ** 9)

    def test_word(self, monkeypatch):
        # each letter fits under the cap, the word does not; a twist
        # letter's power is one step at any power, so the long letters
        # are boundary rotations.  The word's length is checked once,
        # before any letter's steps are read into its script
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        monkeypatch.setattr(engine, "_SCRIPT_CAP", 50)
        gens = [Generator.boundary("S", 8), Generator.twist(TORUS_A, 30),
                Generator.boundary("S", -8)]
        w = MappingClassWord(tri, gens)
        n = sum(len(_letter_encoding(tri, g).steps) for g in gens)
        assert max(len(_letter_encoding(tri, g).steps) for g in gens) <= 50
        read = []
        monkeypatch.setattr(engine, "_read_through",
                            lambda steps, table: read.append(steps))
        with pytest.raises(ComputationError, match=(
                "^script of %d flips exceeds the cap of 50$" % n)):
            w.encoding()
        assert read == [] and w._encoding is None


class TestKeyLemmaReplay:
    """key_lemma_interval resumes w^N(gamma) from the orbit point the word
    kept from the previous call; the reference routes compile w^N as one
    word and bracket on a word with no orbit kept.  All three agree,
    whatever order the calls on one word come in."""

    @pytest.mark.parametrize("fixture,gens,C", [
        ("torus_tri", [Generator.twist(TORUS_A), Generator.twist(TORUS_B)],
         "S"),
        ("torus_tri", [Generator.twist(TORUS_B, -1), Generator.boundary("S"),
                       Generator.twist(TORUS_A, 2)], "S"),
        ("two_holed_torus_tri", [Generator.twist(TWO_HOLED_A),
                                 Generator.twist(TWO_HOLED_B),
                                 Generator.twist(TWO_HOLED_C)], "C1"),
        ("disc3_tri", [Generator.braid(1), Generator.braid(2)] * 3, "C"),
    ])
    def test_matches_compiled_power(self, fixture, gens, C, request):
        tri = request.getfixturevalue(fixture)
        arcs = enumerate_arcs(tri, C, 8)[:2]
        # (probe arc, N) in call order: N growing, N out of order, and a
        # second probe arc on the same word
        for calls in (((0, 1), (0, 2), (0, 5), (0, 13)),
                      ((0, 5), (0, 3), (0, 8)),
                      ((0, 5), (1, 3), (1, 8), (0, 8))):
            self._check_calls(tri, gens, C, arcs, calls)

    @staticmethod
    def _check_calls(tri, gens, C, arcs, calls):
        w = MappingClassWord(tri, gens)
        for (i, N) in calls:
            gamma = arcs[i]
            ref = apply_arc(w.power(N), gamma)
            iv = key_lemma_interval(w, C, gamma, N)
            assert w.orbit_arc(gamma, N) == ref
            assert iv == key_lemma_interval(MappingClassWord(tri, gens), C,
                                            gamma, N)

            def rel(m):
                tm = MappingClassWord(tri, [Generator.boundary(C, m)])
                return curves.compare_at_base(apply_arc(tm, gamma), ref, C)

            M = iv.lo * N
            assert M.denominator == 1
            if iv.is_point:
                assert rel(int(M)) is curves.Ordering.EQUAL
            else:
                assert iv.hi == iv.lo + Fraction(1, N)
                assert rel(int(M)) is curves.Ordering.RIGHT_OF
                assert rel(int(M) + 1) is curves.Ordering.LEFT_OF
