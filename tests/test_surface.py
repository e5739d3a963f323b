import random

import pytest

from fdtc.engine import flip
from fdtc.errors import TriangulationError
from fdtc.surface import (
    SurfaceSpec,
    Triangulation,
    denominator_bound,
    admissible_values,
    standard_triangulation,
)


def validate_triangulation(t: Triangulation) -> list[str]:
    """Check every invariant of a triangulation independently of its
    constructor: the gluing, the Euler characteristic, the punctures and
    the boundary cycles.  A list of diagnostics, empty when all hold."""
    diags: list[str] = []
    try:
        incidences = {}
        for ti, tri in enumerate(t.triangles):
            if len(tri) != 3:
                diags.append("triangle %d does not have three sides" % ti)
                continue
            for k, (e, s) in enumerate(tri):
                incidences.setdefault(e, []).append((ti, k, s))
        for e, inc in sorted(incidences.items()):
            if len(inc) > 2:
                diags.append("non-manifold edge %d (glued to %d slots)" % (e, len(inc)))
            elif len(inc) == 2:
                if inc[0][2] == inc[1][2]:
                    diags.append("edge %d glued without orientation reversal" % e)
                if t.is_boundary_edge(e):
                    diags.append("boundary edge %d is glued to two triangles" % e)
            else:
                if not t.is_boundary_edge(e):
                    diags.append("interior edge %d has only one incidence" % e)
        if diags:
            return diags

        spec = t.surface
        V = len(t.vertices)
        E = t.edge_count
        F = len(t.triangles)
        chi_expected = 2 - 2 * spec.genus - spec.boundary_count
        if V - E + F != chi_expected:
            diags.append(
                "chi mismatch: V-E+F = %d, expected %d" % (V - E + F, chi_expected)
            )
        interior = len(t.puncture_vertices)
        if interior != spec.puncture_count:
            diags.append(
                "puncture mismatch: %d interior vertices, %d punctures declared"
                % (interior, spec.puncture_count)
            )
        if set(t.base_edge_of) != set(spec.boundary_labels):
            diags.append("base edges do not cover the declared boundary labels")
        cycles = t.boundary_cycles
        covered = set()
        for label, cycle in cycles.items():
            for (ti, k) in cycle:
                e, _s = t.triangles[ti][k]
                if t.boundary_label_of_edge.get(e) != label:
                    diags.append(
                        "edge %d on the %s cycle carries label %r"
                        % (e, label, t.boundary_label_of_edge.get(e))
                    )
                covered.add(e)
        if covered != set(t.boundary_label_of_edge):
            missing = sorted(set(t.boundary_label_of_edge) - covered)
            diags.append("boundary edges %s not reached by any cycle" % missing)
    except TriangulationError as exc:
        diags.append(str(exc))
    return diags


class TestSurfaceSpec:
    def test_euler_characteristic(self):
        assert SurfaceSpec(1, ("S",)).euler_characteristic == -1
        assert SurfaceSpec(0, ("C",)).euler_characteristic == 1
        assert SurfaceSpec(0, ("C1", "C2")).euler_characteristic == 0
        assert SurfaceSpec(0, ("C",), 3).euler_characteristic == -2

    def test_validation(self):
        with pytest.raises(ValueError):
            SurfaceSpec(-1, ("C",))
        with pytest.raises(ValueError):
            SurfaceSpec(0, ())
        with pytest.raises(ValueError):
            SurfaceSpec(0, ("C", "C"))
        with pytest.raises(ValueError):
            SurfaceSpec(0, ("C",), -1)

    def test_fold_punctures(self):
        folded = SurfaceSpec(0, ("C",), 2).fold_punctures()
        assert folded.puncture_count == 0
        assert folded.boundary_count == 3
        assert len(set(folded.boundary_labels)) == 3
        # fresh labels avoid clashes with existing ones
        clash = SurfaceSpec(0, ("P1",), 1).fold_punctures()
        assert len(set(clash.boundary_labels)) == 2

    def test_json_roundtrip(self):
        spec = SurfaceSpec(2, ("C1", "C2"), 1)
        assert SurfaceSpec.from_json(spec.to_json()) == spec


class TestDenominatorBound:
    def test_values(self):
        assert denominator_bound(SurfaceSpec(1, ("S",))).value == 6
        assert denominator_bound(SurfaceSpec(1, ("C1", "C2"))).value == 6
        assert denominator_bound(SurfaceSpec(2, tuple("ABCD"))).value == 10
        assert denominator_bound(SurfaceSpec(0, tuple("ABCDE"))).value == 2

    def test_degenerate_surfaces(self):
        for spec in (SurfaceSpec(0, ("C",)), SurfaceSpec(0, ("C1", "C2"))):
            b = denominator_bound(spec)
            assert b.degenerate and b.value == 1

    def test_rejects_punctured_spec(self):
        with pytest.raises(ValueError):
            denominator_bound(SurfaceSpec(0, ("C",), 2))

    def test_folded_disc(self):
        folded = SurfaceSpec(0, ("C",), 2).fold_punctures()
        assert denominator_bound(folded).value == 2


class TestAdmissibleValues:
    def test_torus(self):
        spec = SurfaceSpec(1, ("S",))
        assert admissible_values(spec, "periodic") == set(range(1, 7))
        assert admissible_values(spec, "pseudoAnosov") == {1, 2}
        assert admissible_values(spec, "unknown") == set(range(1, 7))

    def test_bad_type(self):
        with pytest.raises(ValueError):
            admissible_values(SurfaceSpec(1, ("S",)), "parabolic")


class TestStandardTriangulation:
    @pytest.mark.parametrize("spec", [
        SurfaceSpec(1, ("S",)),
        SurfaceSpec(1, ("C1", "C2")),
        SurfaceSpec(0, ("C1", "C2")),
        SurfaceSpec(0, ("C",), 2),
        SurfaceSpec(0, ("C",), 3),
        SurfaceSpec(2, ("S",)),
    ])
    def test_valid(self, spec):
        tri = standard_triangulation(spec)
        assert validate_triangulation(tri) == []
        assert set(tri.base_edge_of) == set(spec.boundary_labels)
        assert len(tri.puncture_vertices) == spec.puncture_count

    def test_euler_count(self):
        # V - E + F consistency for the one-holed torus complex
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        v = len(tri.vertices)
        f = len(tri.triangles)
        assert v - tri.edge_count + f == SurfaceSpec(1, ("S",)).euler_characteristic


class TestTriangulationChecks:
    """Sides are checked, not coerced: edge ids must be ints and signs
    1 or -1, a bool counting as neither."""

    @staticmethod
    def _with_side(e, s):
        tri = standard_triangulation(SurfaceSpec(1, ("S",)))
        triangles = [list(sides) for sides in tri.triangles]
        triangles[0][0] = (e, s)
        return Triangulation(tri.surface, triangles,
                             tri.boundary_label_of_edge, tri.base_edge_of)

    @pytest.mark.parametrize("e", [1.0, 1.9, "1", True])
    def test_edge_id_is_an_integer(self, e):
        with pytest.raises(TriangulationError, match="integer edge id"):
            self._with_side(e, 1)

    @pytest.mark.parametrize("s", [5, 0, True, 1.0, "-1"])
    def test_sign_is_one_or_minus_one(self, s):
        with pytest.raises(TriangulationError, match="sign of 1 or -1"):
            self._with_side(1, s)


FLIP_SURFACES = [
    SurfaceSpec(0, ("C",), 3),
    SurfaceSpec(0, ("C",), 4),
    SurfaceSpec(0, ("C1", "C2", "C3")),
    SurfaceSpec(1, ("C1", "C2")),
    SurfaceSpec(2, ("C1", "C2")),
    SurfaceSpec(1, ("S",), 2),
    SurfaceSpec(1, ("S",)),
    SurfaceSpec(2, ("S",)),
    SurfaceSpec(3, ("S",)),
    SurfaceSpec(0, ("C1", "C2"), 1),
    SurfaceSpec(0, ("C1", "C2", "C3"), 2),
    SurfaceSpec(1, ("C1", "C2", "C3"), 1),
]


class TestFlippedDerivation:
    def test_random_flips(self):
        """Fans and boundary cycles stay consistent along random flip
        paths, self-folded triangles included."""
        rng = random.Random(17)
        folded = 0
        for spec in FLIP_SURFACES:
            tri = standard_triangulation(spec)
            for _ in range(40):
                interior = [e for e in range(tri.edge_count)
                            if not tri.is_boundary_edge(e)]
                try:
                    tri, _step = flip(tri, rng.choice(interior))
                except TriangulationError:
                    continue  # the folded edge of a self-folded triangle
                assert validate_triangulation(tri) == []
                corners = sorted(c for v in tri.vertices for c in v["corners"])
                assert corners == [(t, k) for t in range(len(tri.triangles))
                                   for k in range(3)]
                for v in tri.vertices:
                    if v["boundary"]:
                        t, k = v["corners"][-1]
                        assert tri.is_boundary_edge(tri.triangles[t][k][0])
                for label, cycle in tri.boundary_cycles.items():
                    edges = [tri.triangles[t][k][0] for (t, k) in cycle]
                    assert edges[0] == tri.base_edge_of[label]
                    assert all(tri.boundary_label_of_edge[e] == label
                               for e in edges)
                folded += any(len({e for (e, _s) in sides}) < 3
                              for sides in tri.triangles)
        assert folded > 0
