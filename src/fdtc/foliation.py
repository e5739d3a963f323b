"""Singular foliations on surfaces embedded in an open book, given as
abstract incidence data, and the twisting bounds they certify.

A surface carried by the pages meets the binding in elliptic points and
is tangent to pages at hyperbolic points; each hyperbolic point sits in
one of six region types (aa/ab/bb tiles, ac/bc annuli, cc pants) named
after the regular leaves nearby.  This module validates such data,
evaluates the singularity-count identities (self-linking number, Euler
characteristic), derives twisting bounds from elliptic points, and
checks the combinatorial certificate for an overtwisted disc.

Essentiality of leaves is geometric and cannot be recovered from the
abstract graph, so ``essential``/``strongly_essential`` are caller
asserted; every report echoes the assumptions it leans on.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd

from .errors import FoliationError, InconsistentDataError
from .surface import Record, checked_type

REGION_TYPES = ("aa", "ab", "bb", "ac", "bc", "cc")

# how many singular-leaf endpoints of a hyperbolic point land on
# elliptic points, by region type (the rest land on the surface boundary
# or on c-circles)
REGION_ELLIPTIC_SLOTS = {"aa": 2, "ab": 3, "bb": 4, "ac": 1, "bc": 2, "cc": 0}


class SurfaceTopology(Record):
    __slots__ = ("genus", "boundary_count")

    def __init__(self, genus: int, boundary_count: int):
        super().__init__(genus, boundary_count)

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0

    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.boundary_count

    def to_json(self) -> dict:
        return {"genus": self.genus, "boundary_count": self.boundary_count,
                "closed": self.closed}


class EllipticPoint(Record):
    __slots__ = ("id", "sign", "boundary_label", "essential",
                 "strongly_essential", "a_arcs_present")

    def __init__(self, id: str, sign: int, boundary_label: str,
                 essential: bool = False, strongly_essential: bool = False,
                 a_arcs_present: bool = True):
        super().__init__(id, sign, boundary_label, essential,
                         strongly_essential, a_arcs_present)


class HyperbolicPoint(Record):
    __slots__ = ("id", "sign", "region_type", "degenerated")

    def __init__(self, id: str, sign: int, region_type: str,
                 degenerated: bool = False):
        super().__init__(id, sign, region_type, degenerated)


class SingularityCounts(Record):
    __slots__ = ("e_plus", "e_minus", "h_plus", "h_minus")

    def __init__(self, e_plus: int, e_minus: int, h_plus: int, h_minus: int):
        super().__init__(e_plus, e_minus, h_plus, h_minus)

    def euler_characteristic(self) -> int:
        return (self.e_plus + self.e_minus) - (self.h_plus + self.h_minus)


def _objects(data: dict, key: str) -> list:
    """data[key] as written: a list of JSON objects."""
    return [checked_type(x, dict, "%s entry" % key)
            for x in checked_type(data[key], list, key)]


class FoliationGraph(Record):
    """Abstract combinatorics of a singular foliation on one surface.

    ``singular_leaf_incidence`` lists (hyperbolic id, elliptic id) pairs,
    one per singular-leaf endpoint, so a degenerated region may repeat a
    pair.  c-circle data is graph-level: whether any c-circle leaves are
    present, and whether they are (caller-asserted) essential.
    """

    __slots__ = ("surface", "elliptic_points", "hyperbolic_points",
                 "singular_leaf_incidence", "c_circle_presence",
                 "c_circles_essential")

    def __init__(self, surface: SurfaceTopology, elliptic_points: tuple,
                 hyperbolic_points: tuple, singular_leaf_incidence: tuple,
                 c_circle_presence: bool = False,
                 c_circles_essential: bool = False):
        super().__init__(surface, elliptic_points, hyperbolic_points,
                         singular_leaf_incidence, c_circle_presence,
                         c_circles_essential)

    def elliptic(self, pid: str) -> EllipticPoint:
        for v in self.elliptic_points:
            if v.id == pid:
                return v
        raise FoliationError("unknown elliptic point %r" % (pid,))

    def hyperbolic(self, pid: str) -> HyperbolicPoint:
        for h in self.hyperbolic_points:
            if h.id == pid:
                return h
        raise FoliationError("unknown hyperbolic point %r" % (pid,))

    def incident_elliptics(self, hyp_id: str) -> list:
        """Elliptic ids joined to the hyperbolic point, with multiplicity."""
        return [e for (h, e) in self.singular_leaf_incidence if h == hyp_id]

    def incident_hyperbolics(self, ell_id: str) -> list:
        """Distinct hyperbolic ids joined to the elliptic point."""
        out = []
        for (h, e) in self.singular_leaf_incidence:
            if e == ell_id and h not in out:
                out.append(h)
        return out

    def counts(self) -> SingularityCounts:
        return SingularityCounts(
            sum(1 for v in self.elliptic_points if v.sign > 0),
            sum(1 for v in self.elliptic_points if v.sign < 0),
            sum(1 for h in self.hyperbolic_points if h.sign > 0),
            sum(1 for h in self.hyperbolic_points if h.sign < 0),
        )

    def to_json(self) -> dict:
        return {
            "surface": self.surface.to_json(),
            "elliptic_points": [v.to_json() for v in self.elliptic_points],
            "hyperbolic_points": [h.to_json() for h in self.hyperbolic_points],
            "singular_leaf_incidence": [list(p) for p in self.singular_leaf_incidence],
            "c_circles": {"present": self.c_circle_presence,
                          "essential": self.c_circles_essential},
        }

    @staticmethod
    def from_json(data: dict) -> "FoliationGraph":
        """The graph as written, a JSON object: integer genus, counts and
        signs, string ids, labels and region types, JSON flags, lists of
        point objects and of incidence pairs, and a c_circles object;
        anything else raises FoliationError."""
        try:
            checked_type(data, dict, "graph")
            surf = checked_type(data["surface"], dict, "surface")
            surface = SurfaceTopology(
                checked_type(surf["genus"], int, "genus"),
                checked_type(surf["boundary_count"], int, "boundary_count"))
            ells = tuple(
                EllipticPoint(
                    checked_type(v["id"], str, "id"),
                    checked_type(v["sign"], int, "sign"),
                    checked_type(v.get("boundary_label", ""), str,
                                 "boundary_label"),
                    checked_type(v.get("essential", False), bool, "essential"),
                    checked_type(v.get("strongly_essential", False), bool,
                                 "strongly_essential"),
                    checked_type(v.get("a_arcs_present", True), bool,
                                 "a_arcs_present"),
                )
                for v in _objects(data, "elliptic_points")
            )
            hyps = tuple(
                HyperbolicPoint(
                    checked_type(h["id"], str, "id"),
                    checked_type(h["sign"], int, "sign"),
                    checked_type(h["region_type"], str, "region_type"),
                    checked_type(h.get("degenerated", False), bool,
                                 "degenerated"),
                )
                for h in _objects(data, "hyperbolic_points")
            )
            inc = []
            for pair in checked_type(data.get("singular_leaf_incidence", []),
                                     list, "singular_leaf_incidence"):
                (h, e) = checked_type(pair, list, "incidence pair")
                inc.append((checked_type(h, str, "incidence id"),
                            checked_type(e, str, "incidence id")))
            cc = checked_type(data.get("c_circles", {}), dict, "c_circles")
            return FoliationGraph(
                surface, ells, hyps, tuple(inc),
                checked_type(cc.get("present", False), bool,
                             "c_circles.present"),
                checked_type(cc.get("essential", False), bool,
                             "c_circles.essential"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FoliationError("malformed foliation graph: %s" % (exc,))


class BoundReport(Record):
    """A certified interval for a fractional twisting coefficient.

    ``lower``/``upper`` are Fractions, never infinite.  Each bound
    carries a source tag naming the estimate that produced it, and the
    report lists the caller-asserted assumptions it relies on.
    """

    __slots__ = ("lower", "upper", "source", "assumptions")

    def __init__(self, lower: Fraction, upper: Fraction, source: str,
                 assumptions: tuple = ()):
        if lower > upper:
            raise InconsistentDataError("inconsistent foliation data: "
                                        "empty bound interval")
        super().__init__(lower, upper, source, assumptions)

    def to_json(self) -> dict:
        return {"lower": {"num": self.lower.numerator,
                          "den": self.lower.denominator},
                "upper": {"num": self.upper.numerator,
                          "den": self.upper.denominator},
                "source": self.source, "assumptions": list(self.assumptions)}


# -- validation --------------------------------------------------------------


def validate_graph(g: FoliationGraph) -> list:
    """Consistency diagnostics; an empty list means the graph is ok."""
    diags = []
    seen = set()
    for v in g.elliptic_points:
        if v.id in seen:
            diags.append("duplicate point id %r" % (v.id,))
        seen.add(v.id)
        if v.sign not in (1, -1):
            diags.append("elliptic point %r has sign %r" % (v.id, v.sign))
        if v.strongly_essential and not v.essential:
            diags.append("elliptic point %r strongly essential but not "
                         "essential" % (v.id,))
    for h in g.hyperbolic_points:
        if h.id in seen:
            diags.append("duplicate point id %r" % (h.id,))
        seen.add(h.id)
        if h.sign not in (1, -1):
            diags.append("hyperbolic point %r has sign %r" % (h.id, h.sign))
        if h.region_type not in REGION_TYPES:
            diags.append("hyperbolic point %r has unknown region type %r"
                         % (h.id, h.region_type))

    ell_ids = {v.id for v in g.elliptic_points}
    hyp_ids = {h.id for h in g.hyperbolic_points}
    for (h, e) in g.singular_leaf_incidence:
        if h not in hyp_ids:
            diags.append("incidence names unknown hyperbolic point %r" % (h,))
        if e not in ell_ids:
            diags.append("incidence names unknown elliptic point %r" % (e,))
    if diags:
        return diags

    for h in g.hyperbolic_points:
        want = REGION_ELLIPTIC_SLOTS[h.region_type]
        got = len(g.incident_elliptics(h.id))
        if got != want:
            diags.append(
                "hyperbolic point %r in a %s-region meets %d elliptic "
                "points, expected %d" % (h.id, h.region_type, got, want))

    c = g.counts()
    chi = g.surface.euler_characteristic()
    if c.euler_characteristic() != chi:
        diags.append(
            "singularity counts give Euler characteristic %d but the "
            "surface has %d" % (c.euler_characteristic(), chi))
    if g.surface.closed and c.e_plus != c.e_minus:
        # a closed surface is null-homologous, so its algebraic
        # intersection with the binding vanishes
        diags.append("algebraic intersection nonzero: closed surface with "
                     "e_+ = %d, e_- = %d" % (c.e_plus, c.e_minus))
    if g.c_circles_essential and not g.c_circle_presence:
        diags.append("c-circles flagged essential but none present")

    if not g.c_circle_presence:
        for h in g.hyperbolic_points:
            if h.region_type in ("ac", "bc", "cc"):
                diags.append(
                    "hyperbolic point %r sits in a %s-region but the graph "
                    "declares no c-circles" % (h.id, h.region_type))
    return diags


def self_linking(c: SingularityCounts) -> int:
    """Self-linking number of the boundary from singularity counts."""
    return -(c.e_plus - c.e_minus) + (c.h_plus - c.h_minus)


# -- twisting estimates ------------------------------------------------------


def _check_hypotheses(v: EllipticPoint, mode: str) -> tuple:
    if mode == "monodromy":
        if not v.strongly_essential:
            raise FoliationError(
                "elliptic point %r is not flagged strongly essential "
                "(required for monodromy bounds)" % (v.id,))
        if v.a_arcs_present:
            raise FoliationError(
                "elliptic point %r has a-arcs around it "
                "(monodromy bounds need b-arc leaves only)" % (v.id,))
        return ("point %s strongly essential (caller-asserted)" % v.id,
                "no a-arcs around %s" % v.id)
    if mode == "braid":
        if not v.essential:
            raise FoliationError(
                "elliptic point %r is not flagged essential "
                "(required for braid bounds)" % (v.id,))
        return ("point %s essential (caller-asserted)" % v.id,)
    raise FoliationError("unknown mode %r" % (mode,))


def elliptic_point_bounds(v_id: str, g: FoliationGraph,
                          mode: str = "monodromy") -> BoundReport:
    """Bounds on the twisting coefficient along the binding component of
    one elliptic point, from the signs of the hyperbolic points joined
    to it by singular leaves."""
    v = g.elliptic(v_id)
    assumptions = _check_hypotheses(v, mode)
    p = n = 0
    for hid in g.incident_hyperbolics(v_id):
        if g.hyperbolic(hid).sign > 0:
            p += 1
        else:
            n += 1
    if v.sign > 0:
        lo, hi = -n, p
    else:
        lo, hi = -p, n
    return BoundReport(Fraction(lo), Fraction(hi),
                       "single-elliptic-point estimate (%s)" % mode,
                       assumptions)


def multi_point_bounds(v_ids, g: FoliationGraph,
                       mode: str = "monodromy") -> BoundReport:
    """Intersection of the single-point bounds over several elliptic
    points on the same binding component."""
    if not v_ids:
        raise FoliationError("need at least one elliptic point")
    labels = {g.elliptic(v).boundary_label for v in v_ids}
    if len(labels) > 1:
        raise FoliationError("elliptic points lie on different binding "
                             "components %r" % (sorted(labels),))
    reports = [elliptic_point_bounds(v, g, mode) for v in v_ids]
    lo = max(r.lower for r in reports)
    hi = min(r.upper for r in reports)
    if lo > hi:
        raise InconsistentDataError("inconsistent foliation data: the "
                                    "per-point bounds have empty intersection")
    assumptions = tuple(a for r in reports for a in r.assumptions)
    return BoundReport(lo, hi,
                       "intersected single-point estimates (%s)" % mode,
                       assumptions)


def ceiling_average(count: int, n: int, m: int) -> Fraction:
    """(1/m) * ceil(count*m/n - delta) with the parity-dependent
    correction delta used by the averaged twisting estimates."""
    if n < 1 or m < 1:
        raise FoliationError("need n >= 1 and m >= 1")
    if n % 2:
        delta = Fraction((n - 1) ** 2, 4 * n * n)
    else:
        delta = Fraction(n - 2, 4 * n)
    return Fraction(ceil(Fraction(count * m, n) - delta), m)


def ceiling_average_infimum(count: int, n: int) -> Fraction:
    """inf over m >= 1 of ceiling_average(count, n, m).

    The fractional part of count*m/n is periodic in m with period
    q = n/gcd(count, n), and past one period the terms are mediants
    pulled toward count/n = ceiling_average(count, n, q), so the
    infimum is attained on m <= q.  (Checked against brute force in the
    test suite before being relied on.)
    """
    q = n // gcd(count, n)
    return min(ceiling_average(count, n, m) for m in range(1, q + 1))


def aggregate_bounds(v_ids, g: FoliationGraph,
                     mode: str = "monodromy") -> BoundReport:
    """Averaged bounds from all elliptic points of one sign on a binding
    component; sharper than intersecting single-point bounds when many
    points share few hyperbolic partners."""
    if not v_ids:
        raise FoliationError("need at least one elliptic point")
    vs = [g.elliptic(v) for v in v_ids]
    labels = {v.boundary_label for v in vs}
    if len(labels) > 1:
        raise FoliationError("elliptic points lie on different binding "
                             "components %r" % (sorted(labels),))
    signs = {v.sign for v in vs}
    if len(signs) > 1:
        raise FoliationError("averaged bounds need all elliptic points of "
                             "the same sign")
    assumptions = tuple(a for v in vs for a in _check_hypotheses(v, mode))
    sign = signs.pop()
    n = len(vs)
    touched = set()
    for v in vs:
        touched.update(g.incident_hyperbolics(v.id))
    neg = sum(1 for hid in touched if g.hyperbolic(hid).sign < 0)
    pos = len(touched) - neg
    inf_minus = ceiling_average_infimum(neg, n)
    inf_plus = ceiling_average_infimum(pos, n)
    if sign < 0:
        lo, hi = -inf_plus, inf_minus
    else:
        lo, hi = -inf_minus, inf_plus
    return BoundReport(lo, hi, "averaged same-sign estimate (%s)" % mode,
                       assumptions)


# -- overtwistedness certificates -------------------------------------------


def _signed_graph(g: FoliationGraph, sign: int) -> dict:
    """The graph whose edges are the separatrices of the sign's
    hyperbolic points in aa/ab/bb tiles and whose vertices are the
    sign's elliptic points in ab/bb tiles, plus a fake vertex for every
    separatrix end on the surface boundary."""
    vertices = set()
    for v in g.elliptic_points:
        if v.sign != sign:
            continue
        for hid in g.incident_hyperbolics(v.id):
            if g.hyperbolic(hid).region_type in ("ab", "bb"):
                vertices.add(v.id)
                break
    edges = []
    fakes = set()
    problems = []
    for h in g.hyperbolic_points:
        if h.sign != sign or h.region_type not in ("aa", "ab", "bb"):
            continue
        ends = [e for e in g.incident_elliptics(h.id)
                if g.elliptic(e).sign == sign]
        if len(ends) > 2:
            problems.append(
                "hyperbolic point %r has %d same-sign elliptic neighbours; "
                "a separatrix has only two ends" % (h.id, len(ends)))
            continue
        while len(ends) < 2:
            fake = "fake:%s:%d" % (h.id, len(ends))
            fakes.add(fake)
            ends.append(fake)
        vertices.update(ends)
        edges.append(tuple(ends))
    return {"vertices": vertices, "edges": edges, "fakes": fakes,
            "problems": problems}


def _is_connected(vertices, edges) -> bool:
    if not vertices:
        return False
    adj = {v: set() for v in vertices}
    for (a, b) in edges:
        adj[a].add(b)
        adj[b].add(a)
    stack = [next(iter(vertices))]
    seen = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(vertices)


def _is_tree(gr) -> bool:
    return (bool(gr["vertices"])
            and _is_connected(gr["vertices"], gr["edges"])
            and len(gr["edges"]) == len(gr["vertices"]) - 1)


def _is_circle(gr) -> bool:
    if not gr["edges"] or gr["fakes"]:
        return False
    if not _is_connected(gr["vertices"], gr["edges"]):
        return False
    degree = {v: 0 for v in gr["vertices"]}
    for (a, b) in gr["edges"]:
        degree[a] += 1
        degree[b] += 1
    return all(d == 2 for d in degree.values())


def transverse_ot_disc_check(g: FoliationGraph) -> dict:
    """Check the three conditions certifying an overtwisted disc: the
    negative-separatrix graph is a tree with no fake vertices, there are
    no c-circle leaves, and the positive-separatrix graph is a circle.

    The caller asserts the surface is a disc bounded by a positive
    unknot braid.  A valid certificate with exactly one negative
    elliptic point additionally certifies that the monodromy is not
    right-veering."""
    violations = list(validate_graph(g))
    neg = _signed_graph(g, -1)
    pos = _signed_graph(g, +1)
    violations.extend(neg["problems"])
    violations.extend(pos["problems"])
    if neg["fakes"]:
        violations.append("negative separatrix graph has fake vertices "
                          "(separatrix ends on the boundary)")
    elif not _is_tree(neg):
        violations.append("negative separatrix graph is not a tree")
    if g.c_circle_presence:
        violations.append("foliation contains c-circle leaves")
    if not _is_circle(pos):
        violations.append("positive separatrix graph is not a circle")
    e_minus = g.counts().e_minus
    valid = not violations
    out = {
        "valid": valid,
        "violations": violations,
        "e_minus": e_minus,
        "non_right_veering": bool(valid and e_minus == 1),
        "assumptions": ["surface is a disc bounded by a positive unknot "
                        "braid (caller-asserted)"],
    }
    if out["non_right_veering"]:
        out["conclusion"] = ("certifies non-right-veering monodromy: an "
                             "overtwisted disc with a single negative "
                             "elliptic point")
    return out


def bc_annulus_witness_check(g: FoliationGraph):
    """A degenerated bc-annulus whose c-circles are essential certifies
    a non-right-veering monodromy; return the witness or None."""
    if not g.c_circles_essential:
        return None
    for h in g.hyperbolic_points:
        if h.region_type == "bc" and h.degenerated:
            return {
                "witness": h.id,
                "conclusion": "non-right-veering",
                "assumptions": ["c-circles essential (caller-asserted)"],
            }
    return None
