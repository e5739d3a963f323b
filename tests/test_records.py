"""The records: construction with their defaults, equality, hash, repr,
read-only fields, copies, and the checks their constructors make."""

import copy
import pickle
from fractions import Fraction

import pytest

from fdtc.cli import ProblemFile, Report
from fdtc.curves import ArcClass, NormalCoordinates, enumerate_arcs
from fdtc.errors import CurveError, InconsistentDataError
from fdtc.fdtc import FDTCResult, RationalInterval
from fdtc.foliation import (
    BoundReport,
    EllipticPoint,
    FoliationGraph,
    HyperbolicPoint,
    SingularityCounts,
    SurfaceTopology,
)
from fdtc.mcg import Generator
from fdtc.surface import DenominatorBound, SurfaceSpec, Triangulation
from fdtc.topology import CoefficientAssignment, Verdict

from conftest import TORUS_A, TORUS_B, replace

F = Fraction


def _cases(torus_tri):
    """(class, positional arguments, the defaults left out, one field
    and another value for it) per record."""
    arcs = enumerate_arcs(torus_tri, "S", 8)
    other = next(g.coords for g in arcs if g.coords != arcs[0].coords)
    spec = SurfaceSpec(1, ("S",))
    topo = SurfaceTopology(0, 1)
    return [
        (SurfaceSpec, (1, ("S",)), {"puncture_count": 0}, ("genus", 2)),
        (DenominatorBound, (6,), {"degenerate": False}, ("value", 7)),
        (ArcClass, (arcs[0].coords, ("S", 0)), {}, ("coords", other)),
        (RationalInterval, (F(1, 3), F(1, 2)),
         {"lo_closed": True, "hi_closed": True}, ("hi_closed", False)),
        (FDTCResult,
         (F(1, 6), RationalInterval(F(1, 7), F(1, 5)), "ExactTheorem"),
         {"N": None, "M": None, "D": None},
         ("provenance", "PeriodicityCorollary")),
        (SurfaceTopology, (1, 2), {}, ("boundary_count", 3)),
        (EllipticPoint, ("v", 1, "C"),
         {"essential": False, "strongly_essential": False,
          "a_arcs_present": True}, ("sign", -1)),
        (HyperbolicPoint, ("h", -1, "ab"), {"degenerated": False},
         ("region_type", "bb")),
        (SingularityCounts, (1, 2, 3, 4), {}, ("h_minus", 5)),
        (FoliationGraph, (topo, (EllipticPoint("v", 1, "C"),), (), ()),
         {"c_circle_presence": False, "c_circles_essential": False},
         ("c_circle_presence", True)),
        (BoundReport, (F(0), F(3), "cap"), {"assumptions": ()},
         ("upper", F(4))),
        (Generator, ("twist", 2, TORUS_A), {"label": None, "index": None},
         ("curve", TORUS_B)),
        (CoefficientAssignment, ({"S": F(3, 2)},),
         {"mode": "monodromy", "connected_boundary": False},
         ("mode", "braid")),
        (Verdict, ("Irreducible", "twisting"), {"hypotheses": ()},
         ("conclusion", "Inconclusive")),
        (ProblemFile, (spec, torus_tri, {}, {}, {}, None),
         {"nt_type": None, "tight": False}, ("tight", True)),
        (Report, ("classify", {}), {"results": [], "warnings": []},
         ("task", "surface info")),
    ]


CLASSES = ("SurfaceSpec", "DenominatorBound", "ArcClass", "RationalInterval",
           "FDTCResult", "SurfaceTopology", "EllipticPoint", "HyperbolicPoint",
           "SingularityCounts", "FoliationGraph", "BoundReport", "Generator",
           "CoefficientAssignment", "Verdict", "ProblemFile", "Report")
UNHASHABLE = ("CoefficientAssignment", "ProblemFile", "Report")  # dict fields


@pytest.fixture(params=range(len(CLASSES)), ids=CLASSES)
def case(request, torus_tri):
    return _cases(torus_tri)[request.param]


class TestRecords:
    def test_construction(self, case):
        cls, args, defaults, _ = case
        by_position = cls(*args)
        names = cls.__slots__
        assert len(names) == len(args) + len(defaults)
        by_keyword = cls(**dict(zip(names, args)))
        assert by_position == by_keyword
        assert [getattr(by_position, k) for k in names[len(args):]] == list(
            defaults.values())
        assert list(defaults) == list(names[len(args):])
        full = cls(*args, *defaults.values())
        assert full == by_position

    def test_equality_and_hash(self, case):
        cls, args, _, (field, other) = case
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        changed = replace(a, **{field: other})
        assert changed != a and getattr(changed, field) == other
        assert a != tuple(getattr(a, k) for k in cls.__slots__)
        if cls.__name__ in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b, changed}) == 2

    def test_fields_read_only(self, case):
        cls, args, _, (field, other) = case
        r = cls(*args)
        with pytest.raises(AttributeError):
            setattr(r, field, other)
        with pytest.raises(AttributeError):
            delattr(r, field)
        with pytest.raises(AttributeError):
            r.extra = 1
        assert r == cls(*args)

    def test_copy_and_pickle(self, case):
        cls, args, _, _ = case
        r = cls(*args)
        assert copy.copy(r) == r
        for twin in (copy.copy(r), copy.deepcopy(r),
                     pickle.loads(pickle.dumps(r))):
            assert type(twin) is cls and twin is not r
            for k in cls.__slots__:
                a, b = getattr(twin, k), getattr(r, k)
                if isinstance(b, Triangulation):  # shown by its address
                    a, b = a.triangles, b.triangles
                assert repr(a) == repr(b)

    def test_state_round_trip(self, case):
        # copy and pickle hand __setstate__ the state (None, {slot: value});
        # Record.__init__ sets the fields from it, whichever __init__ the
        # class has
        cls, args, _, _ = case
        r = cls(*args)
        reduced = r.__reduce_ex__(2)
        assert reduced[2] == (None, {k: getattr(r, k) for k in cls.__slots__})
        twin = cls.__new__(cls)
        twin.__setstate__(reduced[2])
        # a pickled triangulation is a new one, equal to no other
        on_tri = any(isinstance(getattr(r, k), (Triangulation,
                                                NormalCoordinates))
                     for k in cls.__slots__)
        twins = [twin, copy.copy(r)]
        if not on_tri:
            twins += [pickle.loads(pickle.dumps(r, protocol))
                      for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is cls
            assert twin == r and not twin != r
            if cls.__name__ not in UNHASHABLE:
                assert hash(twin) == hash(r)
            with pytest.raises(AttributeError):
                setattr(twin, cls.__slots__[0], None)

    def test_repr(self, case):
        cls, args, _, _ = case
        r = cls(*args)
        assert repr(r) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % (k, getattr(r, k)) for k in cls.__slots__))

    def test_repr_as_written(self):
        assert repr(RationalInterval(F(1, 3), F(1, 2), hi_closed=False)) == (
            "RationalInterval(lo=Fraction(1, 3), hi=Fraction(1, 2), "
            "lo_closed=True, hi_closed=False)")
        assert repr(Verdict("Inconclusive", "x", ("h",))) == (
            "Verdict(conclusion='Inconclusive', criterion='x', "
            "hypotheses=('h',))")

    def test_other_class_unequal(self):
        # equal fields in another record class
        assert SurfaceTopology(1, 2) != DenominatorBound(1, 2)
        assert DenominatorBound(1, 2) != SurfaceTopology(1, 2)

    def test_report_lists_are_its_own(self):
        a, b = Report("t", {}), Report("t", {})
        a.results.append(1)
        assert b.results == [] and b.warnings == []

    def test_problem_and_report_fields_read_only(self, torus_tri):
        # their fields are fixed; the dicts and lists they hold are not
        report = Report("classify", {"mode": "monodromy"})
        problem = ProblemFile(SurfaceSpec(1, ("S",)), torus_tri, {}, {}, {},
                              None)
        for r, field in ((report, "results"), (report, "inputs"),
                         (problem, "assignment"), (problem, "words")):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(r, field, getattr(r, field))
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(r, field)
        report.results.append({"ok": True})
        report.inputs["word2"] = "psi"
        problem.words["w"] = None
        assert report.to_json() == {
            "task": "classify", "inputs": {"mode": "monodromy", "word2": "psi"},
            "results": [{"ok": True}], "warnings": []}
        assert list(problem.words) == ["w"]

    @pytest.mark.parametrize("record,written", [
        (EllipticPoint("v", -1, "C", True),
         {"id": "v", "sign": -1, "boundary_label": "C", "essential": True,
          "strongly_essential": False, "a_arcs_present": True}),
        (HyperbolicPoint("h", 1, "ab"),
         {"id": "h", "sign": 1, "region_type": "ab", "degenerated": False}),
        (SingularityCounts(1, 2, 3, 4),
         {"e_plus": 1, "e_minus": 2, "h_plus": 3, "h_minus": 4}),
    ], ids=["EllipticPoint", "HyperbolicPoint", "SingularityCounts"])
    def test_written_by_fields(self, record, written):
        assert record.to_json() == written
        assert list(record.to_json()) == list(written)


class TestChecks:
    def test_interval_order(self):
        with pytest.raises(InconsistentDataError, match="out of order"):
            RationalInterval(F(1), F(0))
        with pytest.raises(InconsistentDataError, match="must be closed"):
            RationalInterval(F(1), F(1), lo_closed=False)
        assert RationalInterval(F(1), F(1)).is_point

    def test_result_inside_its_interval(self):
        iv = RationalInterval(F(0), F(1), hi_closed=False)
        with pytest.raises(InconsistentDataError, match="outside"):
            FDTCResult(F(1), iv, "ExactTheorem")
        assert FDTCResult(None, iv, "ExactTheorem").interval == iv
        assert FDTCResult(F(2), None, "ExactTheorem").value == 2

    @pytest.mark.parametrize("args,message", [
        ((-1, ("S",)), "genus must be nonnegative"),
        ((0, ()), "at least one boundary"),
        ((0, ("C", "C")), "distinct"),
        ((0, ("C",), -1), "puncture count"),
    ])
    def test_surface_spec(self, args, message):
        with pytest.raises(ValueError, match=message):
            SurfaceSpec(*args)

    def test_surface_spec_keeps_a_tuple(self):
        spec = SurfaceSpec(1, ["C1", "C2"])
        assert spec.boundary_labels == ("C1", "C2")
        assert spec == SurfaceSpec(1, ("C1", "C2"))

    @pytest.mark.parametrize("args,message", [
        (({},), "empty"),
        (({"S": 1}, "other"), "unknown mode"),
        (({"C1": 1, "C2": 2}, "monodromy", True), "connected boundary"),
    ])
    def test_assignment(self, args, message):
        with pytest.raises(InconsistentDataError, match=message):
            CoefficientAssignment(*args)

    def test_assignment_reads_fractions(self):
        a = CoefficientAssignment({1: "3/2"}, "braid")
        assert a.coefficients == {"1": F(3, 2)}
        assert type(a.coefficients["1"]) is Fraction

    def test_bound_report_order(self):
        with pytest.raises(InconsistentDataError, match="empty bound"):
            BoundReport(F(2), F(1), "cap")

    def test_arc_start(self, torus_tri):
        coords = enumerate_arcs(torus_tri, "S", 8)[0].coords
        with pytest.raises(CurveError, match="unknown boundary label"):
            ArcClass(coords, ("Z", 0))
        with pytest.raises(CurveError, match="out of range"):
            ArcClass(coords, ("S", 99))
        with pytest.raises(CurveError, match="out of range"):
            ArcClass(NormalCoordinates(torus_tri, [0] * 5), ("S", 0))

    @pytest.mark.parametrize("slot", [0.5, 1.0, True, "0"])
    def test_arc_start_slot_is_an_integer(self, torus_tri, slot):
        coords = enumerate_arcs(torus_tri, "S", 8)[0].coords
        with pytest.raises(CurveError, match="start slot must be an integer"):
            ArcClass(coords, ("S", slot))
