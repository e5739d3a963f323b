import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fdtc.errors import (
    ComputationError, InconsistentDataError, TriangulationError, WordError,
)
from fdtc.surface import SurfaceSpec, denominator_bound, standard_triangulation
from fdtc import curves, engine
from fdtc import fdtc as fdtc_mod
from fdtc.cli import EXIT_COMPUTATION, main
from fdtc.curves import (
    Ordering, boundary_drag, compare_at_base, enumerate_arcs,
)
from fdtc.engine import POSITIVE_DRAG_DIRECTION
from fdtc.mcg import Generator, MappingClassWord, puncture_permutation_order
from fdtc.fdtc import (
    _boundary_power_arc,
    _bracket_from_first,
    _first_probe_arc,
    _reduced_between,
    FDTCResult,
    RationalInterval,
    braid_fdtc,
    fdtc_exact,
    key_lemma_interval,
    key_lemma_power,
    quasimorphism_audit,
    right_veering_test,
    translation_estimate,
    unique_bounded_denominator,
)
from conftest import (
    GENUS2_CHAIN, GENUS3_CHAIN, TORUS_A, TORUS_B, TWO_HOLED_A, TWO_HOLED_B,
    TWO_HOLED_C, apply_arc,
)


def _brute_candidates(interval, D):
    """Independent route: enumerate every reduced p/q with q <= D in a
    window covering the interval."""
    out = set()
    lo, hi = interval.lo, interval.hi
    for q in range(1, D + 1):
        p = -(-(lo * q).numerator // (lo * q).denominator) - 2
        while Fraction(p, q) <= hi:
            x = Fraction(p, q)
            if interval.contains(x):
                out.add(x)
            p += 1
    return sorted(out)


def _candidates(interval, D):
    """The rationals ``_reduced_between`` finds in the closed interval,
    sorted."""
    lo, hi = interval.lo, interval.hi
    return sorted(Fraction(p, q) for p, q in _reduced_between(
        lo.numerator, lo.denominator, hi.numerator, hi.denominator, D))


class TestFareySearch:
    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(300):
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
            b = a + Fraction(rng.randint(0, 40), rng.randint(1, 20))
            iv = RationalInterval(a, b)
            D = rng.randint(1, 12)
            assert _candidates(iv, D) == _brute_candidates(iv, D)

    def test_point_interval(self):
        iv = RationalInterval(Fraction(1, 6), Fraction(1, 6))
        assert _candidates(iv, 6) == [Fraction(1, 6)]
        assert _candidates(iv, 5) == []

    def test_unique_narrow_window(self):
        rng = random.Random(31)
        for _ in range(200):
            D = rng.randint(2, 12)
            q = rng.randint(1, D)
            p = rng.randint(-3 * q, 3 * q)
            x = Fraction(p, q)
            eps = Fraction(1, 2 * D * (D - 1) + 1)
            lo = x - eps * Fraction(rng.randint(0, 100), 100)
            iv = RationalInterval(lo, lo + eps)
            assert unique_bounded_denominator(iv, D) == x

    @pytest.mark.parametrize("D", [6, 14, 26])
    def test_brackets_far_from_zero(self, D):
        """Width-1/N brackets at |M| near 10^12, random and around a
        rational of denominator at most D."""
        N = D * (D - 1) + 1
        rng = random.Random(D)
        for _ in range(100):
            sign = rng.choice((1, -1))
            q = rng.randint(1, D)
            x = Fraction(sign * (10 ** 12 * q // N + rng.randint(0, 10 ** 6)),
                         q)
            for M in (sign * 10 ** 12 + rng.randint(-10 ** 6, 10 ** 6),
                      (x * N).__floor__()):
                iv = RationalInterval(Fraction(M, N), Fraction(M + 1, N))
                assert _candidates(iv, D) == _brute_candidates(iv, D)
            assert _candidates(iv, D) == [x]
            assert unique_bounded_denominator(iv, D) == x

    @pytest.mark.parametrize("D", [14, 26])
    def test_matches_brute_force_high_genus(self, D):
        rng = random.Random(D)
        for _ in range(200):
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
            b = a + Fraction(rng.randint(1, 10), rng.randint(1, 40))
            iv = RationalInterval(a, b)
            assert _candidates(iv, D) == _brute_candidates(iv, D)

    def test_negative_ends_on_candidates(self):
        """Both ends are themselves rationals of denominator at most D,
        and both are candidates: every interval is closed."""
        rng = random.Random(41)
        for _ in range(300):
            D, n = rng.randint(1, 26), rng.randint(2, 200)
            a, b = sorted(Fraction(-n * q + rng.randint(0, 2 * q), q)
                          for q in (rng.randint(1, D), rng.randint(1, D)))
            iv = RationalInterval(a, b)
            found = _candidates(iv, D)
            assert found == _brute_candidates(iv, D)
            assert a in found and b in found

    def test_ambiguity_reported(self):
        iv = RationalInterval(Fraction(0), Fraction(1))
        with pytest.raises(InconsistentDataError, match="^more than one "
                           "admissible rational in the bracketing interval$"):
            unique_bounded_denominator(iv, 3)

    def test_empty_reported(self):
        iv = RationalInterval(Fraction(1, 7), Fraction(1, 7))
        with pytest.raises(InconsistentDataError, match="^no admissible "
                           "rational in the bracketing interval$"):
            unique_bounded_denominator(iv, 3)


def _no_probe_search(*args, **kwargs):
    raise AssertionError("probe-image search reached")


class TestBoundaryCalibration:
    def test_torus_boundary_powers(self, torus_tri):
        for k in (-2, -1, 0, 1, 2):
            w = MappingClassWord(torus_tri, [Generator.boundary("S", k)])
            assert fdtc_exact(w, "S").value == k

    def test_annulus_winding(self, annulus_tri):
        for k in (-2, 1, 3):
            w = MappingClassWord(annulus_tri, [Generator.boundary("C1", k)])
            res = fdtc_exact(w, "C1")
            assert res.value == k
            # the twist on one annulus component equals the other
            assert fdtc_exact(w, "C2").value == k

    def test_once_punctured_disc_is_zero(self):
        # no essential arc, and a trivial mapping class group
        tri = standard_triangulation(SurfaceSpec(0, ("C",), 1))
        w = MappingClassWord(tri, [Generator.boundary("C", 3)])
        for res in (fdtc_exact(w, "C"), braid_fdtc(w, "C")):
            assert res.value == 0 and res.interval.is_point

    @pytest.mark.parametrize("punctures", [0, 1])
    def test_disc_sweep_is_zero(self, punctures):
        # the same rule as fdtc_exact: no probe arc is looked for
        tri = standard_triangulation(SurfaceSpec(0, ("C",), punctures))
        w = MappingClassWord(tri, [Generator.boundary("C", 3)])
        zero = RationalInterval(Fraction(0), Fraction(0))
        assert translation_estimate(w, "C", 3) == [zero] * 3
        with pytest.raises(WordError):
            translation_estimate(w, "D", 3)

    def test_other_component_untouched(self, two_holed_torus_tri):
        w = MappingClassWord(two_holed_torus_tri,
                             [Generator.boundary("C1", 2)])
        assert fdtc_exact(w, "C1").value == 2
        assert fdtc_exact(w, "C2").value == 0

    def test_genus3_chain_and_shift(self, monkeypatch):
        # boundary letters are built, not searched for
        monkeypatch.setattr(engine, "encoding_from_probe_images",
                            _no_probe_search)
        tri = standard_triangulation(SurfaceSpec(3, ("S",)))
        chain = [Generator.twist(c) for c in GENUS3_CHAIN]
        w = MappingClassWord(tri, chain)
        assert fdtc_exact(w, "S").value == Fraction(1, 14)
        shifted = MappingClassWord(tri, [Generator.boundary("S", -3)] + chain)
        assert fdtc_exact(shifted, "S").value == Fraction(-41, 14)

    def test_genus4_boundary_power(self, monkeypatch):
        monkeypatch.setattr(engine, "encoding_from_probe_images",
                            _no_probe_search)
        tri = standard_triangulation(SurfaceSpec(4, ("S",)))
        w = MappingClassWord(tri, [Generator.boundary("S", -5)])
        assert fdtc_exact(w, "S").value == -5


class TestChainRelationValue:
    def test_product_of_twists(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        res = fdtc_exact(w, "S")
        assert res.value == Fraction(1, 6)
        assert res.D == 6 and res.N == 31

    def test_single_twist_zero(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A)])
        assert fdtc_exact(w, "S").value == 0

    def test_boundary_shift(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        shifted = MappingClassWord(torus_tri,
                                   [Generator.boundary("S")]).compose(w)
        assert fdtc_exact(shifted, "S").value == Fraction(7, 6)


class TestKeyLemmaInterval:
    def test_width_and_soundness(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        gamma = enumerate_arcs(torus_tri, "S", 5)[0]
        for N in range(1, 8):
            iv = key_lemma_interval(w, "S", gamma, N)
            assert iv.contains(Fraction(1, 6))
            assert iv.is_point or iv.hi - iv.lo == Fraction(1, N)

    def test_periodicity_collapses_to_point(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.boundary("S", 2)])
        gamma = enumerate_arcs(torus_tri, "S", 5)[0]
        iv = key_lemma_interval(w, "S", gamma, 3)
        assert iv.is_point and iv.lo == 2

    def test_translation_estimate_converges(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        ivs = translation_estimate(w, "S", 6)
        assert len(ivs) == 6
        for (i, iv) in enumerate(ivs):
            assert iv.contains(Fraction(1, 6))
            assert iv.is_point or iv.hi - iv.lo == Fraction(1, i + 1)

    def test_translation_estimate_walks_orbit_once(self, torus_tri,
                                                   monkeypatch):
        # the orbit replays the word's compiled encoding, one call per
        # application of w
        applied = []
        forward = engine.Encoding.forward

        def counted(self, x):
            applied.append(self)
            return forward(self, x)

        monkeypatch.setattr(engine.Encoding, "forward", counted)
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        assert len(translation_estimate(w, "S", 32)) == 32
        assert applied == [w.encoding()] * 32

    @pytest.mark.parametrize("fixture,letters,C", [
        ("torus_tri", [Generator.twist(TORUS_A), Generator.twist(TORUS_B),
                       Generator.boundary("S")], "S"),
        ("two_holed_torus_tri", [Generator.twist(TWO_HOLED_A),
                                 Generator.twist(TWO_HOLED_B),
                                 Generator.twist(TWO_HOLED_C),
                                 Generator.boundary("C1")], "C1"),
        ("disc3_tri", [Generator.braid(1), Generator.braid(2)], "C"),
    ])
    def test_translation_estimate_matches_fresh_words(self, fixture, letters,
                                                      C, request):
        """A sweep resumes each bracket from the previous orbit point; each
        bracket on a word with no orbit kept replays w^n(gamma) from
        gamma."""
        tri = request.getfixturevalue(fixture)
        gamma = _first_probe_arc(tri, C)
        letter = st.tuples(st.sampled_from(letters),
                           st.sampled_from([1, -1, 2]))
        words = st.lists(letter, min_size=1, max_size=4)

        @settings(max_examples=50, deadline=None)
        @given(words, st.integers(1, 12))
        def check(word, N_max):
            gens = [Generator(g.kind, p, g.target)
                    for (g, p) in word]
            swept = translation_estimate(MappingClassWord(tri, gens), C, N_max)
            assert swept == [key_lemma_interval(MappingClassWord(tri, gens),
                                                C, gamma, n)
                             for n in range(1, N_max + 1)]

        check()


class TestBoundaryShift:
    """The Key Lemma brackets the word without its letters of C and
    shifts M by kN; the reference replays every letter of w^N."""

    @pytest.mark.parametrize("fixture,C,letters", [
        ("torus_tri", "S",
         [Generator.twist(TORUS_A), Generator.twist(TORUS_B)]),
        ("two_holed_torus_tri", "C1",
         [Generator.twist(c) for c in (TWO_HOLED_A, TWO_HOLED_B,
                                       TWO_HOLED_C)]
         + [Generator.boundary("C2")]),
        ("two_holed_torus_tri", "C2",
         [Generator.twist(c) for c in (TWO_HOLED_A, TWO_HOLED_B,
                                       TWO_HOLED_C)]
         + [Generator.boundary("C1")]),
        ("disc3_tri", "C", [Generator.braid(1, 2), Generator.braid(2, 2)]),
        ("annulus_tri", "C1", [Generator.boundary("C2")]),
    ])
    def test_matches_replayed_word(self, fixture, C, letters, request):
        tri = request.getfixturevalue(fixture)
        gamma = _first_probe_arc(tri, C)
        rng = random.Random(fixture + C)

        def twisted(m):
            return apply_arc(MappingClassWord(
                tri, [Generator.boundary(C, m)]), gamma)

        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.4:
                    gens.append(Generator.boundary(C, rng.randint(-20, 20)))
                else:
                    g = rng.choice(letters)
                    gens.append(Generator(g.kind, g.power * rng.choice(
                        [1, -1, 2]), g.target))
            w = MappingClassWord(tri, gens)
            N = rng.randint(1, 4)
            iv = key_lemma_interval(w, C, gamma, N)
            assert (iv.lo * N).denominator == 1
            M = int(iv.lo * N)
            ref = apply_arc(w.power(N), gamma)
            assert compare_at_base(twisted(M), ref, C) is (
                Ordering.EQUAL if iv.is_point else Ordering.RIGHT_OF)
            assert compare_at_base(twisted(M + 1), ref, C) \
                is Ordering.LEFT_OF

    def test_sweep_replays_only_the_split_word(self, monkeypatch):
        # a fresh triangulation, so that the boundary letter's power chain
        # is built inside the count
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        applied = []
        forward = engine.Encoding.forward

        def counted(self, x):
            applied.append(self)
            return forward(self, x)

        monkeypatch.setattr(engine.Encoding, "forward", counted)
        w = MappingClassWord(tri, [Generator.boundary("S", 20),
                                   Generator.twist(TORUS_A),
                                   Generator.twist(TORUS_B)])
        ivs = translation_estimate(w, "S", 64)
        assert all(iv.contains(Fraction(121, 6)) for iv in ivs)
        rest = w.boundary_split("S")[0].encoding()
        assert applied.count(rest) == 64
        assert len(applied) <= 64 + 4


def _bracketed_at_N(w, C):
    """The reference for fdtc_exact: the Key Lemma searched at
    N = key_lemma_power(D), then recovery of c from that bracket alone."""
    D = denominator_bound(w.tri.surface.fold_punctures()).value
    N = key_lemma_power(D)
    iv = key_lemma_interval(w, C, _first_probe_arc(w.tri, C), N)
    if iv.is_point:
        value, provenance = iv.lo, "PeriodicityCorollary"
    else:
        value, provenance = unique_bounded_denominator(iv, D), "ExactTheorem"
    return FDTCResult(value, iv, provenance, N=N, M=int(iv.lo * N), D=D)


class TestFirstBracket:
    """fdtc_exact brackets at D + 1 first and, when that pins c, derives
    the bracket at N = D(D-1)+1 without searching for it."""

    @pytest.mark.parametrize("fixture,C,twists", [
        ("torus_tri", "S", (TORUS_A, TORUS_B)),
        ("two_holed_torus_tri", "C1", (TWO_HOLED_A, TWO_HOLED_B,
                                       TWO_HOLED_C)),
        ("two_holed_torus_tri", "C2", (TWO_HOLED_A, TWO_HOLED_B,
                                       TWO_HOLED_C)),
        ("genus2_tri", "S", GENUS2_CHAIN),
        ("annulus_tri", "C1", ()),
        ("pants_tri", "C2", ()),
        ("disc3_tri", "C", ()),
        ("disc4_tri", "C", ()),
    ])
    def test_matches_bracket_at_N(self, fixture, C, twists, request):
        # letters to powers up to +-60, after a shift T_C^s with |s| up to
        # 10^9; on a punctured disc the braid letters are squared, so the
        # words are pure braids and braid_fdtc brackets them as they are
        tri = request.getfixturevalue(fixture)
        letters = [Generator.twist(c) for c in twists] + \
            [Generator.boundary(lab) for lab in tri.surface.boundary_labels] + \
            [Generator.braid(i, 2)
             for i in range(1, tri.surface.puncture_count)]
        coefficient = braid_fdtc if tri.surface.puncture_count else fdtc_exact
        powers = st.one_of(st.sampled_from((1, -1, 2, -3)),
                           st.integers(-60, 60).filter(bool))
        shifts = st.one_of(st.just(0), st.integers(-10 ** 9, 10 ** 9))

        @settings(max_examples=40, deadline=None)
        @given(st.lists(st.tuples(st.sampled_from(letters), powers),
                        min_size=1, max_size=6), shifts)
        def check(word, shift):
            gens = [Generator.boundary(C, shift)] if shift else []
            gens += [Generator(g.kind, p * g.power, g.target)
                     for (g, p) in word]
            w = MappingClassWord(tri, gens)
            assert puncture_permutation_order(w) == 1
            assert coefficient(w, C) == _bracketed_at_N(w, C)

        check()

    @pytest.mark.parametrize("first,c,lo,hi", [
        # Nc not an integer: M = floor(Nc)
        ((Fraction(3, 7), Fraction(4, 7)), Fraction(1, 2),
         Fraction(15, 31), Fraction(16, 31)),
        # the first bracket is the point c
        ((Fraction(1), Fraction(1)), Fraction(1), Fraction(1), Fraction(1)),
        # c is the lower end
        ((Fraction(0), Fraction(1, 7)), Fraction(0), Fraction(0),
         Fraction(1, 31)),
        # c is the upper end
        ((Fraction(-1, 7), Fraction(0)), Fraction(0), Fraction(-1, 31),
         Fraction(0)),
    ])
    def test_derived_branches(self, first, c, lo, hi):
        # D = 6, N1 = 7, N = 31: the brackets as the integer ends of
        # [lo1/7, hi1/7] and [lo/31, hi/31], and c as (p, q)
        ends1 = [x * 7 for x in first]
        ends = [lo * 31, hi * 31]
        assert all(x.denominator == 1 for x in ends1 + ends)
        lo1, hi1 = map(int, ends1)
        assert _bracket_from_first(lo1, hi1, 7, 6, 31) == \
            (c.numerator, c.denominator, *map(int, ends))

    def test_undecided(self):
        # D = 10, N = 91 = 7 * 13, N1 = 11.  The bracket [1/11, 2/11]
        # around c = 1/7 holds 1/10, ..., 1/6; a window of width 1/50
        # holding c = 1/7 alone, strictly inside, says nothing at N, where
        # 91 c = 13
        D, N = 10, 91
        assert _bracket_from_first(1, 2, 11, D, N) is None
        alone = RationalInterval(Fraction(7, 50), Fraction(8, 50))
        assert _candidates(alone, D) == [Fraction(1, 7)]
        assert _bracket_from_first(7, 8, 50, D, N) is None

    @pytest.mark.parametrize("letters,replays", [
        # c = 0 at the lower end of [0, 1/7]: w^7(gamma) only
        ([Generator.twist(TORUS_A, -1), Generator.twist(TORUS_B)], 7),
        # c = 1/6 shares [1/7, 2/7] with 1/5 and 1/4: the orbit resumes
        # from w^7(gamma) up to w^31(gamma)
        ([Generator.twist(TORUS_A), Generator.twist(TORUS_B)], 31),
    ])
    def test_replays(self, torus_tri, letters, replays, monkeypatch):
        applied = []
        forward = engine.Encoding.forward

        def counted(self, x):
            applied.append(self)
            return forward(self, x)

        monkeypatch.setattr(engine.Encoding, "forward", counted)
        w = MappingClassWord(torus_tri, letters)
        fdtc_exact(w, "S")
        assert applied.count(w.encoding()) == replays

    def test_bracket_without_admissible_rational(self, torus_tri,
                                                 monkeypatch, capsys):
        # T_a T_b: the bracket [1/7, 2/7] holds 1/6, 1/5 and 1/4, so the
        # bracket at N = 31 decides; one that holds no rational of
        # denominator at most D = 6 is an error, and the CLI reports it
        # as a computation error (exit 3) without a traceback
        monkeypatch.setattr(fdtc_mod, "key_lemma_interval",
                            lambda w, C, gamma, N: RationalInterval(
                                Fraction(1, 31), Fraction(2, 31)))
        message = "no admissible rational in the bracketing interval"
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        with pytest.raises(InconsistentDataError, match="^%s$" % message):
            fdtc_exact(w, "S")
        problem = json.dumps({
            "surface": {"genus": 1, "boundary": ["S"]},
            "words": {"w": [{"curve": list(TORUS_A)},
                            {"curve": list(TORUS_B)}]}})
        assert main(["fdtc", "exact", problem, "--word", "w"]) == \
            EXIT_COMPUTATION
        out, err = capsys.readouterr()
        assert out == "" and err == "computation error: %s\n" % message


class TestGroupLaws:
    """Homogeneity, inversion, the boundary shift and conjugation
    invariance beyond the one-holed torus, with recovery at D = 6, 10
    and 2; acceptance criterion 04 checks them on S_{1,1}."""

    @pytest.mark.parametrize("fixture,C,letters", [
        ("two_holed_torus_tri", "C1",
         [Generator.twist(c) for c in (TWO_HOLED_A, TWO_HOLED_B,
                                       TWO_HOLED_C)]
         + [Generator.boundary("C1"), Generator.boundary("C2")]),
        ("two_holed_torus_tri", "C2",
         [Generator.twist(c) for c in (TWO_HOLED_A, TWO_HOLED_B,
                                       TWO_HOLED_C)]
         + [Generator.boundary("C1"), Generator.boundary("C2")]),
        ("genus2_tri", "S", [Generator.twist(c) for c in GENUS2_CHAIN]),
        ("disc3_tri", "C", [Generator.braid(1, 2), Generator.braid(2, 2)]),
    ])
    def test_laws(self, fixture, C, letters, request):
        tri = request.getfixturevalue(fixture)
        coefficient = braid_fdtc if tri.surface.puncture_count else fdtc_exact
        T_C = MappingClassWord(tri, [Generator.boundary(C)])
        words = st.lists(st.tuples(st.sampled_from(letters),
                                   st.sampled_from((1, -1))),
                         min_size=1, max_size=3).map(
            lambda word: MappingClassWord(tri, [
                Generator(g.kind, s * g.power, g.target)
                for (g, s) in word]))

        @settings(max_examples=25, deadline=None)
        @given(words, words)
        def check(w, u):
            c = coefficient(w, C).value
            assert coefficient(w.power(2), C).value == 2 * c
            assert coefficient(w.invert(), C).value == -c
            assert coefficient(T_C.compose(w), C).value == c + 1
            assert coefficient(u.compose(w).compose(u.invert()), C).value == c

        check()


class TestBraid:
    def test_half_twist_powers(self, disc2_tri):
        for k in (1, 2, 3):
            w = MappingClassWord(disc2_tri, [Generator.braid(1, k)])
            assert braid_fdtc(w, "C").value == Fraction(k, 2)

    def test_rejects_on_unpunctured(self, torus_tri):
        w = MappingClassWord(torus_tri)
        with pytest.raises(WordError):
            braid_fdtc(w, "S")

    def test_fdtc_exact_rejects_permuting_word(self, disc2_tri):
        w = MappingClassWord(disc2_tri, [Generator.braid(1, 1)])
        with pytest.raises(WordError):
            fdtc_exact(w, "C")

    def test_disc_monodromy_is_zero(self, disc3_tri):
        w = MappingClassWord(disc3_tri, [Generator.braid(1, 2)])
        res = fdtc_exact(w, "C")
        assert res.value == 0


class TestCoxeterBraids:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sigma_product_is_one_over_n(self, n):
        # (sigma_1 ... sigma_{n-1})^n is the boundary twist
        tri = standard_triangulation(SurfaceSpec(0, ("C",), n))
        w = MappingClassWord(tri, [Generator.braid(i) for i in range(1, n)])
        assert braid_fdtc(w, "C").value == Fraction(1, n)


def _short_closed_curves(tri, max_weight):
    """Every single closed curve of total weight at most max_weight."""
    interior = [e for e in range(tri.edge_count)
                if not tri.is_boundary_edge(e)]
    out = []
    for total in range(1, max_weight + 1):
        for edges in itertools.combinations_with_replacement(interior, total):
            c = curves.coords_from_crossings(tri, edges)
            if curves.is_matching(c):
                comps = curves.trace_components(c)
                if len(comps) == 1 and comps[0]["type"] == "closed":
                    out.append(c.weights)
    return out


class TestGenus3ShortTwists:
    def test_twists_have_coefficient_zero(self):
        # some of these curves are crossed by no arc of weight <= 16
        tri = standard_triangulation(SurfaceSpec(3, ("S",)))
        short = _short_closed_curves(tri, 4)
        assert len(short) == 9
        for cw in short:
            w = MappingClassWord(tri, [Generator.twist(cw)])
            assert fdtc_exact(w, "S").value == 0, cw


def _flip_path(tri, rng):
    """The triangulation after a few random flips (the folded edge of a
    self-folded triangle is skipped), and the encoding of those flips."""
    steps = []
    for _ in range(rng.randint(3, 14)):
        interior = [e for e in range(tri.edge_count)
                    if not tri.is_boundary_edge(e)]
        try:
            tri, step = engine.flip(tri, rng.choice(interior))
        except TriangulationError:
            continue
        steps.append(step)
    return tri, engine.Encoding(steps)


def _pairs(*i):
    return lambda tri: [engine.pair_curve_weights(tri, j) for j in i]


# (surface, the two curves of a twist word on its standard triangulation)
FLIPPED_CASES = [
    (SurfaceSpec(0, ("C",), 2), _pairs(1, 1)),
    (SurfaceSpec(0, ("C",), 3), _pairs(1, 2)),
    (SurfaceSpec(0, ("C",), 4), _pairs(1, 3)),
    (SurfaceSpec(1, ("S",)), lambda tri: [TORUS_A, TORUS_B]),
    (SurfaceSpec(1, ("C1", "C2")), lambda tri: [TWO_HOLED_A, TWO_HOLED_B]),
    (SurfaceSpec(0, ("C1", "C2", "C3")), lambda tri: [
        curves.boundary_parallel_curve(tri, C).weights for C in ("C1", "C2")]),
]
FLIPPED_SPECS = [spec for (spec, _pair) in FLIPPED_CASES]
FLIPPED_IDS = ["D2", "D3", "D4", "S11", "S12", "S03"]


def _flip_paths(spec):
    """The standard triangulation of spec and eight seeded flip paths
    from it, each (triangulation, encoding of its flips)."""
    std = standard_triangulation(spec)
    rng = random.Random(20)
    return std, [_flip_path(std, rng) for _ in range(8)]


def _loop_passages(tri, entry, loop):
    """The passages (t, k_in, k_out) of a collar loop, walked from its
    entry side by the exit sides its entries record, back to that side.
    A spur passage (k_in == k_out) has no such record: a loop that holds
    one records it as a k+1 exit, and the walk leaves the loop."""
    gluing = curves._gluing(tri)
    (t, k), passages = entry, []
    for e0, _e1, _e2, left, _flip in loop:
        assert tri.triangles[t][k][0] == e0
        k2 = (k + 2) % 3 if left else (k + 1) % 3
        passages.append((t, k, k2))
        assert gluing[t][k2] is not None  # not out through the boundary
        t, k, _flip = gluing[t][k2]
    assert (t, k) == entry
    return passages


class TestFlippedTriangulations:
    """Seeded flips change no answer.  On a punctured disc they make ears,
    triangles with two boundary sides.  The one collar walk cancels an
    edge crossed twice in a row there, cyclically too, so the collar
    loop never starts or ends inside an ear: the boundary-parallel curve
    is its crossings, the inessential arcs are the walk's prefixes, and
    a strand spiralling around the collar counts its laps on it and
    costs the Key Lemma no more comparisons than on the standard
    triangulation."""

    @pytest.mark.parametrize("spec,pair", FLIPPED_CASES, ids=FLIPPED_IDS)
    def test_same_as_standard(self, spec, pair, monkeypatch):
        std, paths = _flip_paths(spec)
        compares = []
        compare = curves.compare_at_base

        def counted(*args):
            compares.append(args)
            return compare(*args)

        monkeypatch.setattr(curves, "compare_at_base", counted)

        def outcomes(tri, enc):
            # (value, comparisons) of fdtc_exact on T_C^2, on the twist
            # word of the pair and on that word after T_c^5, c the
            # boundary-parallel curve as a curve letter
            moved = [Generator.twist(enc.forward(c)) for c in pair(std)]
            out = {}
            for C in spec.boundary_labels:
                c = curves.boundary_parallel_curve(tri, C).weights
                for i, letters in enumerate([
                        [Generator.boundary(C, 2)], moved,
                        [Generator.twist(c, 5)] + moved]):
                    del compares[:]
                    value = fdtc_exact(MappingClassWord(tri, letters), C).value
                    out[C, i] = (value, len(compares))
            return out

        want = outcomes(std, engine.Encoding([]))
        assert all(want[C, 0][0] == 2 for C in spec.boundary_labels)
        ears = 0
        for tri, enc in paths:
            ears += any(sum(tri.is_boundary_edge(e) for (e, _s) in sides) == 2
                        for sides in tri.triangles)
            for C in spec.boundary_labels:
                assert curves.boundary_parallel_curve(tri, C).weights == \
                    enc.forward(curves.boundary_parallel_curve(std, C).weights)
                assert len(curves._inessential_arcs(tri, C)) == \
                    len(curves._inessential_arcs(std, C))
            for key, (value, n) in outcomes(tri, enc).items():
                assert value == want[key][0]
                assert n <= want[key][1] + 1, key
        assert ears or not spec.puncture_count

    @pytest.mark.parametrize("spec", FLIPPED_SPECS, ids=FLIPPED_IDS)
    def test_collar_laps_grow_as_on_standard(self, spec):
        # T_C^(s m)(gamma) winds m - 1 + offset whole laps, the offset
        # (0 or 1) being the laps of T_C^s(gamma): it depends on which
        # way the probe arc leaves the collar, the rest does not
        std, paths = _flip_paths(spec)

        def laps(tri, C):
            gamma = _first_probe_arc(tri, C)
            out = []
            for s in (1, -1):
                counts = [curves.collar_laps(
                    _boundary_power_arc(gamma, C, s * m),
                    s * POSITIVE_DRAG_DIRECTION) for m in (1, 7)]
                assert counts[0] in (0, 1)
                out.append(counts[1] - counts[0])
            return out

        for C in spec.boundary_labels:
            want = laps(std, C)
            assert want == [6, 6]
            for tri, _enc in paths:
                assert laps(tri, C) == want

    @pytest.mark.parametrize(
        "spec", FLIPPED_SPECS + [SurfaceSpec(0, ("C",), 1)],
        ids=FLIPPED_IDS + ["D1"])
    def test_collar_loops_follow_boundary_curve(self, spec):
        # every collar walk, from every boundary edge each way round, is
        # free of spurs, and its loop crosses the boundary-parallel
        # curve's edges in their cyclic order; flips of the once-punctured
        # disc make self-folded triangles
        std, paths = _flip_paths(spec)
        for tri in [std] + [tri for tri, _enc in paths]:
            gluing = curves._gluing(tri)
            for C in spec.boundary_labels:
                (comp,) = curves.trace_components(
                    curves.boundary_parallel_curve(tri, C))
                edges = comp["edges"]
                turns = [edges[i:] + edges[:i] for i in range(len(edges))]
                for i, (t, k) in enumerate(tri.boundary_cycles[C]):
                    for direction in (1, -1):
                        *_, walk = curves._collar_walk(tri, C, direction, i)
                        # each passage leaves by another side than it
                        # entered by, the last back out through (t, k)
                        entries = [(t, k)] + [gluing[t2][k2][:2]
                                              for (t2, k2) in walk]
                        assert all(x != y for x, y
                                   in zip(entries, walk + [(t, k)]))
                        entry, loop, _lead = curves._collar_loop(
                            tri, C, direction, tri.triangles[t][k][0])
                        passages = _loop_passages(tri, entry, loop)
                        exits = [tri.triangles[t2][k2][0]
                                 for (t2, _k, k2) in passages]
                        assert exits in turns or exits[::-1] in turns


class TestQuasimorphism:
    def test_audit_reference_pair(self, torus_tri):
        w1 = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                          Generator.twist(TORUS_B)])
        w2 = MappingClassWord(torus_tri, [Generator.boundary("S")])
        audit = quasimorphism_audit(w1, w2, "S")
        assert audit["defect_ok"] and audit["conjugation_ok"]
        assert audit["c12"] == Fraction(7, 6)

    def test_homogeneity_small(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        for k in (2, 3, -1):
            assert fdtc_exact(w.power(k), "S").value == Fraction(k, 6)


class TestRightVeering:
    def test_negative_boundary_twist(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.boundary("S", -1)])
        out = right_veering_test(w, "S", 5)
        assert out["verdict"] == "non-right-veering"
        assert out["reason"] == "fdtc-negative"

    def test_positive_with_type_assertion(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.boundary("S", 1),
                                         Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        out = right_veering_test(w, "S", 5, nt_type="pseudoAnosov")
        assert out["verdict"] == "right-veering"

    def test_witness_search(self, torus_tri):
        # c(T_a^{-1}) = 0 but the inverse twist moves an arc left
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A, -1)])
        out = right_veering_test(w, "S", 6)
        assert out["verdict"] == "non-right-veering"
        assert out["reason"] == "witness-arc"
        assert out["witness"] is not None

    def test_no_witness_for_identity(self, torus_tri):
        out = right_veering_test(MappingClassWord(torus_tri), "S", 5)
        assert out["verdict"] == "no-witness-up-to-bound"


class TestBoundaryPowerClosedForm:
    """T_C^m(gamma) is read off the collar drags of gamma: the m-th drag,
    continued by whole laps once a drag adds exactly one lap per
    endpoint on C."""

    @pytest.mark.parametrize("fixture,C", [
        ("torus_tri", "S"),
        ("two_holed_torus_tri", "C1"),
        ("two_holed_torus_tri", "C2"),
        ("disc3_tri", "C"),
    ])
    def test_matches_compiled_twist(self, fixture, C, request):
        tri = request.getfixturevalue(fixture)
        # the probe arc, heavier arcs (on C2 the third is the twist image
        # of the first) and arcs that wind three times around C, whose
        # drags unwind them before they add whole laps
        arcs = enumerate_arcs(tri, C, 8)[:4]
        arcs += [apply_arc(MappingClassWord(tri, [Generator.boundary(C, k)]),
                           arcs[0]) for k in (3, -3)]
        for gamma in arcs:
            for m in range(-7, 8):
                twist = MappingClassWord(tri, [Generator.boundary(C, m)])
                assert _boundary_power_arc(gamma, C, m) == \
                    apply_arc(twist, gamma)

    @pytest.mark.parametrize("genus", [2, 3])
    def test_matches_repeated_drag(self, genus):
        tri = standard_triangulation(SurfaceSpec(genus, ("S",)))
        gamma = _first_probe_arc(tri, "S")
        for sign in (1, -1):
            dragged = gamma
            for m in range(1, 9):
                dragged = boundary_drag(dragged, "S",
                                        sign * POSITIVE_DRAG_DIRECTION)
                assert _boundary_power_arc(gamma, "S", sign * m) == dragged

    def test_probe_arc_found_once(self, monkeypatch):
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        gamma = _first_probe_arc(tri, "S")

        def fail(*args):
            raise AssertionError("probe arc enumerated again")

        monkeypatch.setattr(curves, "enumerate_arcs", fail)
        assert _first_probe_arc(tri, "S") is gamma

    def test_key_lemma_needs_no_collar_drag(self, monkeypatch):
        # T_C^m(gamma) replays the compiled boundary letter; the drag is
        # only the tests' reference.  Fresh triangulations, since the
        # power chains are cached on them.
        def fail(*args, **kwargs):
            raise AssertionError("collar drag reached")

        monkeypatch.setattr(curves, "boundary_drag", fail)

        def fresh(genus, labels, punctures=0):
            return standard_triangulation(
                SurfaceSpec(genus, labels, punctures))

        tri = fresh(1, ("S",))
        w = MappingClassWord(tri, [Generator.twist(TORUS_A),
                                   Generator.twist(TORUS_B)])
        assert fdtc_exact(w, "S").value == Fraction(1, 6)
        tri = fresh(1, ("C1", "C2"))
        w = MappingClassWord(tri, [Generator.twist(c) for c in
                                   (TWO_HOLED_A, TWO_HOLED_B, TWO_HOLED_C)])
        for C in ("C1", "C2"):
            assert fdtc_exact(w, C).value == Fraction(1, 4)
        tri = fresh(2, ("S",))
        w = MappingClassWord(tri, [Generator.twist(c) for c in GENUS2_CHAIN])
        assert fdtc_exact(w, "S").value == Fraction(1, 10)
        tri = fresh(3, ("S",))
        w = MappingClassWord(tri, [Generator.boundary("S", -3)])
        assert fdtc_exact(w, "S").value == -3
        tri = fresh(0, ("C",), 3)
        w = MappingClassWord(tri, [Generator.braid(1), Generator.braid(2)])
        assert braid_fdtc(w, "C").value == Fraction(1, 3)
        tri = fresh(0, ("C1", "C2"))
        w = MappingClassWord(tri, [Generator.boundary("C1", -4),
                                   Generator.boundary("C2", 2)])
        for C in ("C1", "C2"):
            res = fdtc_exact(w, C)
            assert (res.value, res.N, res.M, res.D) == (-2, 1, -2, 1)


def _bisection(rel, N, half):
    """The Key Lemma search as it was before the seeded one, kept as the
    reference: check both range ends, then bisect [-half, half].
    ``rel(m)`` orders T_C^m(gamma) against the image arc."""
    lo, hi = -half, half
    if rel(lo) is Ordering.LEFT_OF:
        raise ComputationError("Key Lemma search range too small (low end)")
    top = rel(hi)
    if top is not Ordering.LEFT_OF:
        if top is Ordering.EQUAL:
            return RationalInterval(Fraction(hi, N), Fraction(hi, N))
        raise ComputationError("Key Lemma search range too small (high end)")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        r = rel(mid)
        if r is Ordering.EQUAL:
            return RationalInterval(Fraction(mid, N), Fraction(mid, N))
        if r is Ordering.RIGHT_OF:
            lo = mid
        else:
            hi = mid
    if rel(lo) is Ordering.EQUAL:
        return RationalInterval(Fraction(lo, N), Fraction(lo, N))
    return RationalInterval(Fraction(lo, N), Fraction(lo + 1, N))


def _outcome(search):
    try:
        return search()
    except ComputationError as exc:
        return str(exc)


WORD_LETTERS = {
    "torus_tri": ("S", [Generator.twist(TORUS_A, s) for s in (1, -1)]
                  + [Generator.twist(TORUS_B, s) for s in (1, -1)]
                  + [Generator.boundary("S", s) for s in (1, -1)]),
    "two_holed_torus_tri": (
        "C1", [Generator.twist(c, s) for c in (TWO_HOLED_A, TWO_HOLED_B,
                                               TWO_HOLED_C)
               for s in (1, -1)]
        + [Generator.boundary(C, s) for C in ("C1", "C2") for s in (1, -1)]),
}


class TestSeededSearch:
    """The seeded search returns what the plain bisection returns, on
    real words and on every position of M around the range ends."""

    @pytest.mark.parametrize("fixture", sorted(WORD_LETTERS))
    def test_matches_bisection_on_words(self, fixture, request):
        tri = request.getfixturevalue(fixture)
        C, letters = WORD_LETTERS[fixture]
        gamma = _first_probe_arc(tri, C)

        @settings(max_examples=60, deadline=None)
        @given(st.lists(st.sampled_from(letters), min_size=1, max_size=4),
               st.sampled_from((1, 2, 5, 31)))
        def check(gens, N):
            w = MappingClassWord(tri, gens)
            image = gamma
            for _ in range(N):
                image = apply_arc(w, image)

            def rel(m):
                twist = MappingClassWord(tri, [Generator.boundary(C, m)])
                return compare_at_base(apply_arc(twist, gamma), image, C)

            half = 2 * N * max(w.length(), 1) + 2
            assert _outcome(lambda: key_lemma_interval(w, C, gamma, N)) == \
                _outcome(lambda: _bisection(rel, N, half))

        check()

    def test_matches_bisection_at_range_ends(self, torus_tri, monkeypatch):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        gamma = _first_probe_arc(torus_tri, "S")
        target = {}

        def rel(m):
            # T_C^m(gamma) decreases in m; it equals the image at M when
            # the image is exactly a boundary-twist power
            if target["exact"] and m == target["M"]:
                return Ordering.EQUAL
            return Ordering.RIGHT_OF if m <= target["M"] else Ordering.LEFT_OF

        monkeypatch.setattr(fdtc_mod, "_boundary_power_arc",
                            lambda gamma, C, m: m)
        monkeypatch.setattr(curves, "compare_at_base",
                            lambda m, image, C: rel(m))

        @settings(max_examples=150, deadline=None)
        @given(st.sampled_from((1, 2, 5, 31)), st.integers(-3, 3),
               st.integers(-40, 40), st.booleans())
        @example(1, 0, 6, True)      # 'eq' at the high end
        @example(1, 0, -6, True)     # 'eq' at the low end
        @example(1, 0, 6, False)     # M beyond the high end
        @example(1, 0, -7, False)    # M below the low end
        @example(2, 1, 11, False)
        def check(N, end, offset, exact):
            half = 2 * N * w.length() + 2
            # M near one of the range ends, or anywhere inside
            target["M"] = end * half + offset if end in (-1, 1) else offset
            target["exact"] = exact
            assert _outcome(lambda: key_lemma_interval(w, "S", gamma, N)) \
                == _outcome(lambda: _bisection(rel, N, half))

        check()

    def test_few_comparisons(self, torus_tri, monkeypatch):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A),
                                         Generator.twist(TORUS_B)])
        gamma = _first_probe_arc(torus_tri, "S")
        calls = []
        compare = curves.compare_at_base

        def counted(*args):
            calls.append(args)
            return compare(*args)

        monkeypatch.setattr(curves, "compare_at_base", counted)
        for N in (31, 62, 124):
            calls.clear()
            iv = key_lemma_interval(w, "S", gamma, N)
            assert iv.contains(Fraction(1, 6))
            # m = 0, then the two ends of the bracket
            assert len(calls) <= 3
