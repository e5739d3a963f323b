import random
from fractions import Fraction

import pytest

from fdtc.errors import WordError
from fdtc import curves
from fdtc.curves import NormalCoordinates, enumerate_arcs
from fdtc.mcg import (
    Generator,
    MappingClassWord,
    acts_identically,
    identity_word,
    puncture_permutation_order,
)
from conftest import TORUS_A, TORUS_B, TWO_HOLED_A


def _random_word(tri, rng, length, letters):
    gens = [letters[rng.randrange(len(letters))] for _ in range(length)]
    return MappingClassWord(tri, gens)


def _torus_letters():
    return [Generator.twist(TORUS_A, 1), Generator.twist(TORUS_A, -1),
            Generator.twist(TORUS_B, 1), Generator.twist(TORUS_B, -1)]


class TestWordConstruction:
    def test_adjacent_cancellation(self, torus_tri):
        w = MappingClassWord(torus_tri, [
            Generator.twist(TORUS_A, 1), Generator.twist(TORUS_A, -1)])
        assert w.is_identity_word()

    def test_adjacent_merge(self, torus_tri):
        w = MappingClassWord(torus_tri, [
            Generator.twist(TORUS_A, 2), Generator.twist(TORUS_A, 3)])
        assert len(w.generators) == 1 and w.generators[0].power == 5

    def test_rejects_foreign_curve(self, torus_tri):
        with pytest.raises(WordError):
            MappingClassWord(torus_tri, [Generator.twist((1, 0), 1)])

    def test_rejects_unknown_boundary(self, torus_tri):
        with pytest.raises(WordError):
            MappingClassWord(torus_tri, [Generator.boundary("Z")])

    def test_rejects_braid_without_punctures(self, torus_tri):
        with pytest.raises(WordError):
            MappingClassWord(torus_tri, [Generator.braid(1)])

    @pytest.mark.parametrize("power", [Fraction(2), 2.0, "2", True])
    def test_rejects_power_that_is_not_an_int(self, torus_tri, disc2_tri,
                                              power):
        for tri, g in [(torus_tri, Generator.twist(TORUS_A, power)),
                       (torus_tri, Generator.boundary("S", power)),
                       (disc2_tri, Generator.braid(1, power))]:
            with pytest.raises(WordError, match="power must be an integer"):
                MappingClassWord(tri, [g])

    @pytest.mark.parametrize("kind,field", [
        ("braid", "1"), ("braid", 1.0), ("braid", True),
        ("twist", (0, 1.0, 0, 1, 1)), ("twist", (0, 1, 0, "1", True)),
    ])
    def test_rejects_letter_field_that_is_not_an_int(self, kind, field):
        with pytest.raises(WordError, match="must be an integer"):
            getattr(Generator, kind)(field, 2)

    def test_word_checks_only_powers_of_built_letters(self, torus_tri,
                                                      monkeypatch):
        # the constructors checked index and weights once per letter
        letters = _torus_letters()
        seen = []
        monkeypatch.setattr("fdtc.mcg.checked_type",
                            lambda x, kind, what, error: seen.append(what))
        MappingClassWord(torus_tri, letters)
        assert seen == ["power"] * len(letters)

    def test_len_counts_letters(self, torus_tri):
        w = MappingClassWord(torus_tri, [
            Generator.twist(TORUS_A, 2), Generator.twist(TORUS_B, -3)])
        assert w.length() == 5


class TestBoundarySplit:
    def test_split_at_each_component(self, two_holed_torus_tri):
        a = Generator.twist(TWO_HOLED_A)
        w = MappingClassWord(two_holed_torus_tri, [
            Generator.boundary("C1", 3), a, Generator.boundary("C2", -2),
            Generator.boundary("C1", -5)])
        rest, k = w.boundary_split("C1")
        assert k == -2
        assert rest.generators == (a, Generator.boundary("C2", -2))
        assert w.boundary_split("C1")[0] is rest
        rest, k = w.boundary_split("C2")
        assert k == -2
        assert rest.generators == (Generator.boundary("C1", 3), a,
                                   Generator.boundary("C1", -5))

    def test_neighbours_cancel(self, torus_tri):
        w = MappingClassWord(torus_tri, [
            Generator.twist(TORUS_A), Generator.boundary("S", 4),
            Generator.twist(TORUS_A, -1)])
        rest, k = w.boundary_split("S")
        assert rest.is_identity_word() and k == 4

    def test_word_without_the_letter_is_its_own_rest(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A)])
        assert w.boundary_split("S") == (w, 0)


class TestGroupAction:
    """The compiled action must be a right action of words on curves:
    (w1 ∘ w2)(x) = w1(w2(x))."""

    @pytest.mark.parametrize("fixture,nletters", [
        ("torus_tri", "twists"), ("disc3_tri", "braids")])
    def test_composition_law(self, fixture, nletters, request):
        tri = request.getfixturevalue(fixture)
        if nletters == "twists":
            letters = _torus_letters()
        else:
            letters = [Generator.braid(1, 1), Generator.braid(1, -1),
                       Generator.braid(2, 1), Generator.braid(2, -1),
                       Generator.boundary("C", 1)]
        rng = random.Random(11)
        probes = [g.coords for lab in sorted(tri.base_edge_of)
                  for g in enumerate_arcs(tri, lab, 6)]
        for _ in range(10):
            w1 = _random_word(tri, rng, rng.randint(1, 4), letters)
            w2 = _random_word(tri, rng, rng.randint(1, 4), letters)
            comp = w1.compose(w2)
            for x in probes[:4]:
                assert comp.apply(x).weights == w1.apply(w2.apply(x)).weights

    def test_inverse(self, torus_tri):
        rng = random.Random(5)
        for _ in range(5):
            w = _random_word(torus_tri, rng, 4, _torus_letters())
            wi = w.invert()
            x = NormalCoordinates(torus_tri, TORUS_A)
            assert wi.apply(w.apply(x)).weights == x.weights

    def test_power(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A, 1),
                                         Generator.twist(TORUS_B, 1)])
        x = NormalCoordinates(torus_tri, TORUS_B)
        twice = w.apply(w.apply(x))
        assert w.power(2).apply(x).weights == twice.weights
        assert w.power(0).is_identity_word()

    def test_apply_arc_keeps_start(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A, 1)])
        g = enumerate_arcs(torus_tri, "S", 5)[0]
        assert w.apply_arc(g).start == g.start

    def test_orbit_arc_power_not_negative(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A, 1)])
        g = enumerate_arcs(torus_tri, "S", 5)[0]
        assert w.orbit_arc(g, 0) == g
        with pytest.raises(WordError):
            w.orbit_arc(g, -1)
        # a rejected power leaves the kept point w^0(g) in place
        assert w.orbit_arc(g, 2) == w.power(2).apply_arc(g)


class TestPuncturePermutation:
    def test_half_twist_swaps(self, disc3_tri):
        w = MappingClassWord(disc3_tri, [Generator.braid(1)])
        assert w.puncture_permutation() == (1, 0, 2)
        assert puncture_permutation_order(w) == 2

    def test_even_powers_fix(self, disc3_tri):
        w = MappingClassWord(disc3_tri, [Generator.braid(1, 2)])
        assert w.puncture_permutation() == (0, 1, 2)
        assert puncture_permutation_order(w) == 1

    def test_three_cycle(self, disc3_tri):
        w = MappingClassWord(disc3_tri, [Generator.braid(2),
                                         Generator.braid(1)])
        assert puncture_permutation_order(w) == 3


class TestActsIdentically:
    def test_identity(self, torus_tri):
        ok, witness = acts_identically(identity_word(torus_tri), 6)
        assert ok and witness is None

    def test_commutator_of_disjoint(self, two_holed_torus_tri):
        tri = two_holed_torus_tri
        w = MappingClassWord(tri, [
            Generator.boundary("C1"), Generator.boundary("C2"),
            Generator.boundary("C1", -1), Generator.boundary("C2", -1)])
        ok, witness = acts_identically(w, 7)
        assert ok

    def test_nontrivial_word_has_witness(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A, 1)])
        ok, witness = acts_identically(w, 6)
        assert not ok and witness is not None


class TestJson:
    def test_roundtrip(self, torus_tri):
        w = MappingClassWord(torus_tri, [Generator.twist(TORUS_A, 2),
                                         Generator.boundary("S", -1)])
        back = MappingClassWord.from_json(torus_tri, w.to_json())
        assert back.generators == w.generators

    def test_braid_roundtrip(self, disc3_tri):
        w = MappingClassWord(disc3_tri, [Generator.braid(1, 2),
                                         Generator.braid(2, -1)])
        data = w.to_json()
        assert data == [{"braid": 1, "power": 2}, {"braid": 2, "power": -1}]
        back = MappingClassWord.from_json(disc3_tri, data)
        assert back.generators == w.generators

    def test_named_curves(self, torus_tri):
        data = [{"twist": "a", "power": 1}, {"braid": None}]
        w = MappingClassWord.from_json(torus_tri, [{"twist": "a"}],
                                       {"a": TORUS_A})
        assert w.generators[0].curve == TORUS_A
        with pytest.raises(WordError):
            MappingClassWord.from_json(torus_tri, [{"twist": "z"}], {})

    @pytest.mark.parametrize("item", [
        {"braid": 1.0}, {"braid": True}, {"braid": "1"},
        {"braid": 1, "power": 0.5}, {"braid": 1, "power": False},
    ])
    def test_integer_fields(self, disc2_tri, item):
        with pytest.raises(WordError, match="must be an integer"):
            MappingClassWord.from_json(disc2_tri, [item])
