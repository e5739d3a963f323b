"""Surfaces S_{g,d} with punctures, reference triangulations and the
a-priori denominator bounds for fractional Dehn twist coefficients.

A triangulation is stored as a list of oriented triangles.  Each triangle
is an ordered triple of sides, each side a pair ``(edge_id, sign)``; the
three sides are listed counterclockwise and ``sign`` is +1 when the
intrinsic direction of the edge agrees with the counterclockwise
traversal.  Interior edges appear in exactly two triangle slots with
opposite signs, boundary edges in exactly one.

All vertices are marked points: boundary vertices live on the boundary
polygons and every puncture is an interior vertex.  Each boundary
component designates one of its edges as the *base edge*; arcs based on
that component start on the interior of the base edge, which plays the
role of a blown-up base point.
"""

from __future__ import annotations

from .errors import TriangulationError


# set_field(record, name, value) sets a field past Record.__setattr__,
# which refuses every assignment
set_field = object.__setattr__


class Record:
    """A read-only record of the fields named in ``__slots__``, which
    ``Record.__init__`` sets in order: equal to a record of its class with
    equal fields, hashed, shown and written to JSON by its fields, as a
    frozen dataclass is, and copied or pickled field by field.  A record
    class checks its arguments in its own ``__init__`` and passes the
    field values on to this one, or sets them by name with ``set_field``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, k) for k in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (k, getattr(self, k)) for k in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __setstate__(self, state):  # (None, {slot: value}) from copy, pickle
        Record.__init__(self, *map(state[1].get, self.__slots__))

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


# ---------------------------------------------------------------------------
# surface specs


class SurfaceSpec(Record):
    """A compact oriented surface of genus g with d >= 1 labelled boundary
    components and n marked interior punctures."""

    __slots__ = ("genus", "boundary_labels", "puncture_count")

    def __init__(self, genus: int, boundary_labels: tuple[str, ...],
                 puncture_count: int = 0):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if len(boundary_labels) < 1:
            raise ValueError("at least one boundary component required")
        if len(set(boundary_labels)) != len(boundary_labels):
            raise ValueError("boundary labels must be distinct")
        if puncture_count < 0:
            raise ValueError("puncture count must be nonnegative")
        super().__init__(genus, tuple(boundary_labels), puncture_count)

    @property
    def boundary_count(self) -> int:
        return len(self.boundary_labels)

    @property
    def euler_characteristic(self) -> int:
        # punctures are treated as removed points
        return 2 - 2 * self.genus - self.boundary_count - self.puncture_count

    def fold_punctures(self) -> "SurfaceSpec":
        """Convert every puncture into a boundary component.

        The new components get labels ``"P1"``.. that do not clash with
        existing ones.  Pure spec transformation; used when the braid
        FDTC needs the denominator bound of the punctured page."""
        labels = list(self.boundary_labels)
        for i in range(self.puncture_count):
            name = "P%d" % (i + 1)
            while name in labels:
                name = "_" + name
            labels.append(name)
        return SurfaceSpec(self.genus, tuple(labels), 0)

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "boundary": list(self.boundary_labels),
            "punctures": self.puncture_count,
        }

    @staticmethod
    def from_json(data: dict) -> "SurfaceSpec":
        """The spec as written, a JSON object: integer genus and
        punctures, and a list of string labels; anything else raises
        ValueError."""
        checked_type(data, dict, "surface")
        labels = data["boundary"]
        if not isinstance(labels, list) or not all(
                isinstance(x, str) for x in labels):
            raise ValueError("boundary must be a list of labels, not %r"
                             % (labels,))
        return SurfaceSpec(
            checked_type(data["genus"], int, "genus"),
            tuple(labels),
            checked_type(data.get("punctures", 0), int, "punctures"),
        )


def checked_type(x, kind: type, what: str, error=ValueError):
    """x if its type is exactly ``kind``, else raises ``error``: the one
    check of values read from JSON and of letter fields.  A bool is not
    an int here."""
    if type(x) is not kind:
        noun = {int: "an integer", bool: "true or false", str: "a string",
                list: "a list", dict: "a JSON object"}[kind]
        raise error("%s must be %s, not %r" % (what, noun, x))
    return x


class DenominatorBound(Record):
    """Result of denominator_bound: D(S), with a degenerate flag for the
    disc and annulus where the general formula does not apply."""

    __slots__ = ("value", "degenerate")

    def __init__(self, value: int, degenerate: bool = False):
        super().__init__(value, degenerate)


def denominator_bound(spec: SurfaceSpec) -> DenominatorBound:
    """D(S) = max(4g+2, 4g+d-3), the a-priori bound on FDTC denominators.

    Callers must fold punctures into boundary components first; punctured
    specs are rejected to prevent silent misuse.  The disc and annulus
    return the marker value 1 with degenerate=True: on the annulus the
    FDTC is an integer, on the disc it is 0.
    """
    if spec.puncture_count:
        raise ValueError(
            "denominator_bound expects punctures folded into boundary "
            "(call fold_punctures first)"
        )
    g, d = spec.genus, spec.boundary_count
    if g == 0 and d <= 2:
        return DenominatorBound(1, degenerate=True)
    return DenominatorBound(max(4 * g + 2, 4 * g + d - 3), degenerate=False)


def admissible_values(spec: SurfaceSpec, nt_type: str) -> set[int]:
    """Set of denominators q that c(phi, C) can have, by Nielsen-Thurston
    type: {1..4g+2} for periodic maps, {1..4g+d-3} for pseudo-Anosov,
    their union when the type is unknown."""
    if spec.puncture_count:
        spec = spec.fold_punctures()
    g, d = spec.genus, spec.boundary_count
    periodic = set(range(1, 4 * g + 2 + 1))
    pa_top = 4 * g + d - 3
    if nt_type == "periodic":
        return periodic
    if nt_type == "pseudoAnosov":
        if pa_top < 1:
            raise ValueError("no pseudo-Anosov maps on this surface")
        return set(range(1, pa_top + 1))
    if nt_type == "unknown":
        return periodic | set(range(1, pa_top + 1))
    raise ValueError("nt_type must be periodic, pseudoAnosov or unknown")


# ---------------------------------------------------------------------------
# triangulations

Side = tuple[int, int]  # (edge_id, +1 | -1)


class Triangulation:
    """Immutable oriented triangulation of a SurfaceSpec.

    Derived combinatorial structure (edge incidences, vertices, boundary
    cycles) is computed lazily and cached.
    """

    def __init__(
        self,
        surface: SurfaceSpec,
        triangles,
        boundary_label_of_edge: dict[int, str],
        base_edge_of: dict[str, int],
    ):
        self.surface = surface
        self.triangles: tuple[tuple[Side, Side, Side], ...] = tuple(
            tuple((e, s) for (e, s) in tri) for tri in triangles
        )
        self.boundary_label_of_edge = dict(boundary_label_of_edge)
        self.base_edge_of = dict(base_edge_of)
        edges = set()
        for tri in self.triangles:
            for (e, s) in tri:
                # a bool is neither an edge id nor a sign
                if type(e) is not int or type(s) is not int or s not in (1, -1):
                    raise TriangulationError("side %r needs an integer edge "
                                             "id and a sign of 1 or -1" % ((e, s),))
                edges.add(e)
        if edges and edges != set(range(len(edges))):
            raise TriangulationError("edge ids must be 0..E-1 without gaps")
        self.edge_count = len(edges)
        self._derived = None
        self._cache: dict = {}

    # -- basic queries ----------------------------------------------------

    def is_boundary_edge(self, e: int) -> bool:
        return e in self.boundary_label_of_edge

    @property
    def incidences(self) -> dict[int, list[tuple[int, int]]]:
        """edge id -> list of (triangle index, slot)."""
        return self._derive()["incidences"]

    @property
    def vertices(self) -> list[dict]:
        """List of vertex records: {corners, boundary: bool}.

        ``corners`` is the list of (triangle, slot) corners around the
        vertex in fan order; a boundary vertex's fan starts just after a
        boundary side and ends on one.  Boundary vertices come first."""
        return self._derive()["vertices"]

    @property
    def vertex_of_corner(self) -> dict[tuple[int, int], int]:
        return self._derive()["vertex_of_corner"]

    @property
    def boundary_cycles(self) -> dict[str, list[tuple[int, int]]]:
        """boundary label -> ordered list of boundary sides (tri, slot)."""
        return self._derive()["boundary_cycles"]

    @property
    def puncture_vertices(self) -> list[int]:
        return [i for i, v in enumerate(self.vertices) if not v["boundary"]]

    def other_incidence(self, e: int, t: int, k: int) -> tuple[int, int]:
        for (t2, k2) in self.incidences[e]:
            if (t2, k2) != (t, k):
                return (t2, k2)
        raise TriangulationError("edge %d has no second incidence" % e)

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """(tail vertex, head vertex) in the edge's intrinsic direction."""
        (t, k) = self.incidences[e][0]
        (_e, s) = self.triangles[t][k]
        voc = self.vertex_of_corner
        start = voc[(t, k)]          # start of the side in triangle order
        end = voc[(t, (k + 1) % 3)]  # end of the side
        return (start, end) if s == 1 else (end, start)

    # -- derivation -------------------------------------------------------

    def _derive(self):
        if self._derived is not None:
            return self._derived
        incidences: dict[int, list[tuple[int, int]]] = {}
        for t, tri in enumerate(self.triangles):
            for k, (e, _s) in enumerate(tri):
                incidences.setdefault(e, []).append((t, k))
        for e, inc in incidences.items():
            if len(inc) > 2:
                raise TriangulationError("non-manifold edge %d" % e)

        # corner (t, k): the vertex at the start of side k of triangle t.
        # Rotating across side k lands at corner (t', k'+1), where (t', k')
        # is the other incidence of that side's edge, and stops at a
        # boundary side.  With at most two incidences per edge, rotate is
        # one-to-one and only a corner just after a boundary side has no
        # preimage, so its orbits are chains from those corners, ending on
        # a boundary side, and cycles of the remaining corners.
        def rotate(corner):
            t, k = corner
            inc = incidences[self.triangles[t][k][0]]
            if len(inc) == 1:
                return None
            t2, k2 = inc[1] if inc[0] == corner else inc[0]
            return (t2, (k2 + 1) % 3)

        corners = [(t, k) for t in range(len(self.triangles)) for k in range(3)]
        starts = [(t, k) for (t, k) in corners
                  if len(incidences[self.triangles[t][k - 1][0]]) == 1]
        vertex_of_corner: dict[tuple[int, int], int] = {}
        vertices: list[dict] = []
        # the boundary fans first, one from each start
        for corner in starts + corners:
            if corner in vertex_of_corner:
                continue
            fan = [corner]
            while (nxt := rotate(fan[-1])) not in (None, corner):
                fan.append(nxt)
            for c in fan:
                vertex_of_corner[c] = len(vertices)
            vertices.append({"corners": fan,
                             "boundary": len(vertices) < len(starts)})

        # the boundary side after (t, k) is the last corner of the fan that
        # starts at (t, k+1); that map permutes the boundary sides
        def side_after(side):
            t, k = side
            return vertices[vertex_of_corner[(t, (k + 1) % 3)]]["corners"][-1]

        boundary_cycles: dict[str, list[tuple[int, int]]] = {}
        for label, eps in self.base_edge_of.items():
            inc = incidences.get(eps)
            if not inc or len(inc) != 1:
                raise TriangulationError(
                    "base edge of %s is not a boundary edge" % label
                )
            cycle = [inc[0]]
            while (nxt := side_after(cycle[-1])) != cycle[0]:
                cycle.append(nxt)
            boundary_cycles[label] = cycle

        self._derived = {
            "incidences": incidences,
            "vertices": vertices,
            "vertex_of_corner": vertex_of_corner,
            "boundary_cycles": boundary_cycles,
        }
        return self._derived


# ---------------------------------------------------------------------------
# standard triangulation


def standard_triangulation(spec: SurfaceSpec) -> Triangulation:
    """Deterministic reference triangulation.

    The unpunctured surface is built from a fan-triangulated polygon with
    side word a1 b1 a1' b1' ... (one handle per genus) followed by
    t_j B_j t_j' for each extra boundary component and a final side for
    the first boundary.  Punctures are then added by repeatedly coning a
    vertex into a triangle; consecutive punctures are coned into adjacent
    triangles so that each pair (p_i, p_{i+1}) is joined by an edge,
    which the braid generators rely on.
    """
    g, d, n = spec.genus, spec.boundary_count, spec.puncture_count
    labels = spec.boundary_labels
    names: list[tuple] = []  # side word as (name, direction) tokens
    for i in range(g):
        names += [("a%d" % i, 1), ("b%d" % i, 1), ("a%d" % i, -1), ("b%d" % i, -1)]
    for j in range(1, d):
        names += [("t%d" % j, 1), ("B%d" % j, 1), ("t%d" % j, -1)]
    names += [("B0", 1)]

    boundary_name_label = {"B%d" % j: labels[j] for j in range(d)}

    if len(names) == 1:
        # disc: a single triangle, all three sides on the boundary
        lab = labels[0]
        tris = [((0, 1), (1, 1), (2, 1))]
        tri = Triangulation(
            SurfaceSpec(0, (lab,), 0),
            tris,
            {0: lab, 1: lab, 2: lab},
            {lab: 0},
        )
        return _cone_punctures(tri, spec, n)

    k = len(names)
    edge_ids: dict[str, int] = {}
    boundary_label_of_edge: dict[int, str] = {}

    def edge_for(name: str) -> int:
        if name not in edge_ids:
            edge_ids[name] = len(edge_ids)
            if name in boundary_name_label:
                boundary_label_of_edge[edge_ids[name]] = boundary_name_label[name]
        return edge_ids[name]

    # polygon sides in ccw order; side i runs from corner i to corner i+1
    sides: list[Side] = []
    for (name, direction) in names:
        sides.append((edge_for(name), direction))
    # fan diagonals from corner 0: D_i joins corner 0 to corner i
    diag: dict[int, Side] = {1: sides[0], k - 1: (sides[k - 1][0], -sides[k - 1][1])}
    for i in range(2, k - 1):
        diag[i] = (edge_for("D%d" % i), 1)

    tris = []
    for i in range(1, k - 1):
        d_in = diag[i]                       # corner 0 -> corner i
        mid = sides[i]                       # corner i -> corner i+1
        d_out = (diag[i + 1][0], -diag[i + 1][1])  # corner i+1 -> corner 0
        tris.append((d_in, mid, d_out))

    base_edge_of = {boundary_name_label["B%d" % j]: edge_ids["B%d" % j] for j in range(d)}
    tri = Triangulation(
        SurfaceSpec(g, labels, 0), tris, boundary_label_of_edge, base_edge_of
    )
    return _cone_punctures(tri, spec, n)


def _cone_punctures(tri: Triangulation, spec: SurfaceSpec, n: int) -> Triangulation:
    """Add n interior vertices by coning, chaining each new puncture to
    the previous one by an edge."""
    if n == 0:
        return tri
    triangles = [list(t) for t in tri.triangles]
    next_edge = tri.edge_count
    target = 0  # cone into triangle 0 first
    chain_edges: list[int] = []
    puncture_corners: list[tuple[int, int]] = []
    for p in range(n):
        sA, sB, sC = triangles[target]
        # cone a vertex into the target triangle with corners U, V, W
        # (U the start of side sA): three new edges eU: p->U, eV: p->V,
        # eW: p->W, and three new triangles replacing the target.
        eU, eV, eW = next_edge, next_edge + 1, next_edge + 2
        next_edge += 3
        t_new1 = [sA, (eV, -1), (eU, 1)]   # U -> V, V -> p, p -> U
        t_new2 = [sB, (eW, -1), (eV, 1)]
        t_new3 = [sC, (eU, -1), (eW, 1)]
        triangles[target] = t_new1
        triangles.append(t_new2)
        triangles.append(t_new3)
        # corner at the start of slot 2 of t_new1 (side p -> U) is the
        # new vertex; t_new1 keeps its list position for good.
        puncture_corners.append((target, 2))
        if p > 0:
            # the target was the previous round's t_new3, whose W corner
            # is the previous puncture, so eW joins the two punctures
            chain_edges.append(eW)
        target = len(triangles) - 1
    out = Triangulation(spec, triangles, tri.boundary_label_of_edge, tri.base_edge_of)
    out._cache["puncture_chain_edges"] = chain_edges
    out._cache["puncture_corner_order"] = puncture_corners
    return out
