"""Isotopy classes of properly embedded arcs and simple closed curves in
normal coordinates, tightening, the boundary ordering, essentiality and
geometric intersection numbers.

A multicurve/multiarc is stored as one nonnegative integer weight per
edge: the number of transverse crossings of a taut representative.  Arc
endpoints lie in the interiors of boundary edges and count as crossings
of those edges, so a boundary edge weight is the number of arc endpoints
sitting on it.  Inside every triangle the strands are chords joining two
distinct sides; the number of chords cutting the corner between sides k
and k+1 is (w_k + w_{k+1} - w_{k+2})/2, which must be a nonnegative
integer (the matching conditions).  Weights satisfying the matching
conditions determine the taut multicurve up to normal isotopy, so
coordinate equality is class equality.

Weights of iterated twist images grow exponentially; everything here is
plain Python integers (arbitrary precision) and the arc comparator never
materializes individual strands of a large object beyond the common
prefix it actually walks.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum

from .errors import CurveError, MatchingError, ComputationError
from .surface import Triangulation

# overlays materialize individual strands; refuse above this many slots
OVERLAY_LIMIT = 200_000
# an overlay runs one lockstep per pair of crossings sharing an edge, a
# few microseconds each; above this many pairs it is not attempted
OVERLAY_PAIR_LIMIT = 50_000


class Ordering(enum.Enum):
    RIGHT_OF = "RightOf"  # gamma1 > gamma2: gamma2 strictly right of gamma1
    LEFT_OF = "LeftOf"
    EQUAL = "Equal"


class NormalCoordinates:
    """Edge weights of a taut multicurve/multiarc on a triangulation."""

    __slots__ = ("tri", "weights")

    def __init__(self, tri: Triangulation, weights):
        self.tri = tri
        w = tuple(int(x) for x in weights)
        if len(w) != tri.edge_count:
            raise CurveError(
                "expected %d weights, got %d" % (tri.edge_count, len(w))
            )
        if any(x < 0 for x in w):
            raise CurveError("negative edge weight")
        self.weights = w

    def __eq__(self, other):
        return (
            isinstance(other, NormalCoordinates)
            and self.tri is other.tri
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((id(self.tri), self.weights))

    def __repr__(self):
        return "NormalCoordinates(%r)" % (self.weights,)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def is_empty(self) -> bool:
        return all(x == 0 for x in self.weights)


def matching_diagnostics(c: NormalCoordinates) -> list[tuple[int, str]]:
    """All matching-condition violations as (triangle index, message)."""
    out = []
    tri = c.tri
    for t, sides in enumerate(tri.triangles):
        w = [c.weights[e] for (e, _s) in sides]
        if (w[0] + w[1] + w[2]) % 2 != 0:
            out.append((t, "odd total weight %d in triangle %d" % (sum(w), t)))
            continue
        for k in range(3):
            if w[k] > w[(k + 1) % 3] + w[(k + 2) % 3]:
                out.append(
                    (
                        t,
                        "triangle inequality fails in triangle %d at slot %d"
                        % (t, k),
                    )
                )
    return out


def is_matching(c: NormalCoordinates) -> bool:
    return not matching_diagnostics(c)


def tighten(c: NormalCoordinates) -> NormalCoordinates:
    """Canonical representative of the class of c.

    Weights satisfying the matching conditions already are canonical and
    pass through unchanged (idempotence).  A weight vector whose only
    defect is an excess w_k > w_{k+1} + w_{k+2} in some triangle
    describes a representative with strands folded back across a side
    (a bigon against the triangulation); each fold is removed by taking
    2 off the offending edge.  Parity violations cannot come from an
    embedded object and are rejected with their location.
    """
    tri = c.tri
    w = list(c.weights)
    changed = True
    guard = sum(w) + 1
    while changed:
        changed = False
        for t, sides in enumerate(tri.triangles):
            es = [e for (e, _s) in sides]
            ws = [w[e] for e in es]
            if (ws[0] + ws[1] + ws[2]) % 2 != 0:
                raise MatchingError(
                    "odd total weight in triangle %d" % t, location=t
                )
            for k in range(3):
                if ws[k] > ws[(k + 1) % 3] + ws[(k + 2) % 3]:
                    w[es[k]] -= 2
                    if w[es[k]] < 0:
                        raise MatchingError(
                            "irreparable weights in triangle %d" % t, location=t
                        )
                    changed = True
                    break
            if changed:
                break
        guard -= 1
        if guard < 0:
            raise MatchingError("tightening did not terminate")
    out = NormalCoordinates(tri, w)
    bad = matching_diagnostics(out)
    if bad:
        t, msg = bad[0]
        raise MatchingError(msg, location=t)
    return out


# ---------------------------------------------------------------------------
# strand tracing
#
# A tracing state is (t, k, q): the strand has just entered triangle t
# through side k, at local position q counted from the start corner of
# side k (positions along a side run from its start corner to its end
# corner in the triangle's counterclockwise traversal).  Entering through
# side k, the chords near the start corner (q < n_start, with n_start the
# number of chords cutting that corner) cut across to side k+2, the rest
# to side k+1; nesting around each corner reverses the position order.
# A slot is a position counted along the edge's own direction instead.
#
# All stepping happens in two routines.  ``_walk`` follows one strand and
# yields one passage (t, k_in, k_out, exit edge, exit slot) per triangle;
# it stops after yielding an exit through a boundary edge.  ``_lockstep``
# follows two strands that enter one triangle side together and returns
# at their first divergence: +1 when the second strand leaves through the
# k+1 side (the right flank), -1 when it leaves through the k+2 side, 0
# when both leave through the same boundary edge.  The budget of either
# is the number of triangle passages it may make; when it runs out,
# ``_walk`` simply stops and ``_lockstep`` returns None, and the caller
# decides whether that is an error.
#
# A strand spiralling around a boundary component repeats one collar loop
# of passages, the periodic part of ``_boundary_wrap``.  The collar is an
# annulus, so one lap moves the strand's entry position q by a constant,
# q -> q + B, and the positions that complete a lap form a range [lo, hi);
# one pass over the loop reads both off (``_lap_map``), and the number of
# whole laps is one integer division.  ``_lockstep`` jumps over the whole
# laps that both strands make together, counting the skipped passages
# against its budget, so a spiral costs one pass instead of one per lap.

_NEXT = (1, 2, 0)
_PREV = (2, 0, 1)


def _position(c: NormalCoordinates, t: int, k: int, slot: int) -> int:
    """Local position on side k of triangle t of the crossing at ``slot``
    of that side's edge."""
    e, sign = c.tri.triangles[t][k]
    return slot if sign == 1 else c.weights[e] - 1 - slot


def _gluing(tri: Triangulation):
    """gluing[t][k] = (t2, k2, flip): side k of triangle t is glued to
    side k2 of triangle t2, and flip tells whether the two sides run
    along their edge in opposite directions (so that a local position q
    becomes w - 1 - q); None on a boundary edge."""
    if "gluing" not in tri._cache:
        table = [[None] * 3 for _ in tri.triangles]
        for e, incs in tri.incidences.items():
            if len(incs) == 2:
                (t1, k1), (t2, k2) = incs
                flip = tri.triangles[t1][k1][1] != tri.triangles[t2][k2][1]
                table[t1][k1] = (t2, k2, flip)
                table[t2][k2] = (t1, k1, flip)
        tri._cache["gluing"] = table
    return tri._cache["gluing"]


def _walk(c: NormalCoordinates, t: int, k: int, q: int, budget: int):
    w = c.weights
    triangles = c.tri.triangles
    gluing = _gluing(c.tri)
    for _ in range(budget):
        sides = triangles[t]
        w0 = w[sides[k][0]]
        if q < (w0 + w[sides[_PREV[k]][0]] - w[sides[_NEXT[k]][0]]) // 2:
            k2 = _PREV[k]
            q = w[sides[k2][0]] - 1 - q
        else:
            k2 = _NEXT[k]
            q = w0 - 1 - q
        e, sign = sides[k2]
        yield t, k, k2, e, (q if sign == 1 else w[e] - 1 - q)
        glued = gluing[t][k2]
        if glued is None:
            return
        t, k, flip = glued
        if flip:
            q = w[e] - 1 - q


def _lockstep(a: NormalCoordinates, b: NormalCoordinates, t: int, k: int,
              qa: int, qb: int, budget: int):
    wa, wb = a.weights, b.weights
    triangles = a.tri.triangles
    gluing = _gluing(a.tri)
    entries = _collar_entries(a.tri)
    while budget > 0:
        budget -= 1
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
        for loop in entries[t][k]:
            # both strands enter a collar loop: skip the whole laps they
            # make together; a budget that runs out in them ends the walk
            cap = budget // len(loop) + 1
            laps_a, shift_a = _lap_map(wa, loop, qa, cap)
            laps_b, shift_b = _lap_map(wb, loop, qb, cap) if laps_a else (0, 0)
            if laps_a and laps_b:
                laps = min(laps_a, laps_b)
                budget -= laps * len(loop)
                qa += laps * shift_a
                qb += laps * shift_b
                break
    return None


def _lap_map(w, loop, q: int, cap: int):
    """(laps, shift): a strand entering the collar loop at position q
    keeps to it for ``laps`` whole laps, at most ``cap``, and each lap
    adds ``shift`` to its entry position; (0, 0) when it leaves during
    the first lap.  One pass over the loop tracks the position as s*q + c
    and narrows the range [lo, hi) of entry positions that stay on the
    loop; a lap ends with s = 1 because the collar is an annulus."""
    lo, hi = 0, w[loop[0][0]]
    s, c = 1, 0
    for e0, e1, e2, left, e_flip in loop:
        m = (w[e0] + w[e2] - w[e1]) // 2 - c
        # stay left: s*q < m; stay right: s*q >= m
        if left == (s == 1):
            hi = min(hi, m if s == 1 else 1 - m)
        else:
            lo = max(lo, m if s == 1 else 1 - m)
        if not lo <= q < hi:
            return 0, 0
        s, c = -s, (w[e2] if left else w[e0]) - 1 - c
        if e_flip >= 0:
            s, c = -s, w[e_flip] - 1 - c
    if c == 0:
        return cap, 0
    laps = (hi - 1 - q) // c + 1 if c > 0 else (q - lo) // -c + 1
    return min(laps, cap), c


def _collar_loop(tri: Triangulation, label: str, direction: int, edge: int):
    """((t, k), loop): the collar loop of ``label`` run in ``direction``,
    entered through side k of triangle t where the wrap from boundary
    edge ``edge`` comes back to that edge.  Each passage of the loop is
    (entry edge, k+1 edge, k+2 edge, whether it leaves by the k+2 side,
    the exit edge when the gluing reverses positions there or -1)."""
    key = ("collar_loop", label, direction, edge)
    if key not in tri._cache:
        wrap, kin = _boundary_wrap(tri, label, direction, edge)
        gluing = _gluing(tri)
        t0, _k0, k1 = wrap[0]
        loop = []
        for t, k, k2 in [(t0, kin, k1)] + wrap[1:]:
            sides = tri.triangles[t]
            flipped = gluing[t][k2][2]
            loop.append((sides[k][0], sides[_NEXT[k]][0], sides[_PREV[k]][0],
                         k2 == _PREV[k], sides[k2][0] if flipped else -1))
        tri._cache[key] = ((t0, kin), tuple(loop))
    return tri._cache[key]


def _collar_entries(tri: Triangulation):
    """entries[t][k]: the distinct collar loops entered through side k of
    triangle t, for every boundary edge and both directions."""
    if "collar_entries" not in tri._cache:
        table = [[(), (), ()] for _ in tri.triangles]
        for label, boundary in tri.boundary_cycles.items():
            for (t, k) in boundary:
                for direction in (1, -1):
                    (t1, k1), loop = _collar_loop(tri, label, direction,
                                                  tri.triangles[t][k][0])
                    if loop not in table[t1][k1]:
                        table[t1][k1] += (loop,)
        tri._cache["collar_entries"] = table
    return tri._cache["collar_entries"]


def trace_arc_strand(c: NormalCoordinates, e: int, slot: int):
    """Follow the strand starting on boundary edge e at the given slot.

    Returns (edges, slots): the crossed edges after the start, ending
    with the boundary edge where the strand terminates.
    """
    tri = c.tri
    if not tri.is_boundary_edge(e):
        raise CurveError("arc strands must start on a boundary edge")
    (t, k) = tri.incidences[e][0]
    passages = list(_walk(c, t, k, _position(c, t, k, slot), c.total_weight + 1))
    if not tri.is_boundary_edge(passages[-1][3]):
        raise ComputationError("strand trace exceeded the total weight budget")
    return [p[3] for p in passages], [p[4] for p in passages]


def trace_components(c: NormalCoordinates):
    """Decompose desk-scale coordinates into strand components.

    Returns a list of dicts with keys type ('arc'|'closed'), edges,
    slots; arcs also carry start=(edge, slot).  Slot sequences include
    the start crossing for closed components but not for arcs (whose
    start is listed separately).
    """
    tri = c.tri
    if c.total_weight > OVERLAY_LIMIT:
        raise ComputationError("coordinates too large to decompose explicitly")
    visited = set()
    comps = []
    for e in sorted(tri.boundary_label_of_edge):
        for slot in range(c.weights[e]):
            if (e, slot) in visited:
                continue
            edges, slots = trace_arc_strand(c, e, slot)
            visited.add((e, slot))
            visited.update(zip(edges, slots))
            comps.append(
                {"type": "arc", "start": (e, slot), "edges": edges, "slots": slots}
            )
    # remaining crossings belong to closed components
    for e in range(tri.edge_count):
        for slot in range(c.weights[e]):
            if (e, slot) in visited:
                continue
            (t, k) = tri.incidences[e][0]
            q = _position(c, t, k, slot)
            edges, slots = [e], [slot]
            for (_t, _k, _k2, e2, slot2) in _walk(c, t, k, q, c.total_weight + 2):
                if tri.is_boundary_edge(e2):
                    raise CurveError("open strand not anchored on the boundary")
                if (e2, slot2) == (e, slot):
                    break
                edges.append(e2)
                slots.append(slot2)
            else:
                raise ComputationError("closed trace did not close up")
            visited.update(zip(edges, slots))
            comps.append({"type": "closed", "edges": edges, "slots": slots})
    return comps


def coords_from_crossings(tri: Triangulation, edges) -> NormalCoordinates:
    w = [0] * tri.edge_count
    for e in edges:
        w[e] += 1
    return NormalCoordinates(tri, w)


# ---------------------------------------------------------------------------
# arcs


@dataclass(frozen=True)
class ArcClass:
    """Oriented essential-or-not arc starting on the base edge of a
    boundary component.  ``start`` is (boundary label, slot index on that
    component's base edge)."""

    coords: NormalCoordinates
    start: tuple[str, int]

    def __post_init__(self):
        label, slot = self.start
        tri = self.coords.tri
        if label not in tri.base_edge_of:
            raise CurveError("unknown boundary label %r" % label)
        eps = tri.base_edge_of[label]
        if not 0 <= slot < self.coords.weights[eps]:
            raise CurveError("start slot %d out of range on base edge" % slot)

    @property
    def tri(self) -> Triangulation:
        return self.coords.tri

    def walk(self):
        """(edges, slots) of the strand from the start slot."""
        eps = self.tri.base_edge_of[self.start[0]]
        return trace_arc_strand(self.coords, eps, self.start[1])

    def end(self) -> tuple[str, int]:
        edges, slots = self.walk()
        e = edges[-1]
        return (self.tri.boundary_label_of_edge[e], slots[-1])


def arc_from_walk(tri: Triangulation, label: str, walk_edges) -> ArcClass | None:
    """Build the arc class whose taut representative crosses, from the
    base edge of ``label``, exactly ``walk_edges`` in order (the last
    entry being the terminal boundary edge).  Returns None when no
    single embedded taut arc realizes the walk."""
    eps = tri.base_edge_of[label]
    coords = coords_from_crossings(tri, [eps] + list(walk_edges))
    if not is_matching(coords):
        return None
    want = list(walk_edges)
    for slot in range(coords.weights[eps]):
        try:
            edges, _slots = trace_arc_strand(coords, eps, slot)
        except (CurveError, ComputationError):
            return None
        if edges == want and len(edges) + 1 == coords.total_weight:
            return ArcClass(coords, (label, slot))
    return None


# ---------------------------------------------------------------------------
# the boundary ordering
#
# Two arcs based on the same boundary component are compared by tracing
# both from their start slots in lockstep.  While the crossed edge
# sequences agree, taut representatives run parallel; at the first
# divergence the arc exiting through the side adjacent to the end corner
# of the entry side (the k+1 side) passes on the right.  The convention
# is pinned globally by requiring c(T_C, C) = +1.  The lockstep skips the
# whole collar laps the two arcs share, in the spiral at their start and
# in any spiral before their far ends, so a comparison costs about one
# lap per spiral plus the walk outside the spirals, however many laps
# T_C^m or phi^N winds.


def compare_at_base(g1: ArcClass, g2: ArcClass, C: str) -> Ordering:
    if g1.tri is not g2.tri:
        raise CurveError("arcs live on different triangulations")
    if g1.start[0] != C or g2.start[0] != C:
        raise CurveError("arcs must start at the base point of %s" % C)
    tri = g1.tri
    eps = tri.base_edge_of[C]
    (t0, k0) = tri.incidences[eps][0]
    q1 = _position(g1.coords, t0, k0, g1.start[1])
    q2 = _position(g2.coords, t0, k0, g2.start[1])
    cap = g1.coords.total_weight + g2.coords.total_weight + 2
    d = _lockstep(g1.coords, g2.coords, t0, k0, q1, q2, cap)
    if d is None:
        raise ComputationError("comparison exceeded the trace budget")
    if d:
        return Ordering.RIGHT_OF if d == 1 else Ordering.LEFT_OF
    # identical crossing sequences: same weights and, unless the two arcs
    # are the two orientations of one underlying arc, the same class.  The
    # reversed-orientation tie is ordered by the start positions on the
    # base edge.
    if (g1.coords.weights, g1.start) == (g2.coords.weights, g2.start) or q1 == q2:
        return Ordering.EQUAL
    return Ordering.RIGHT_OF if q2 > q1 else Ordering.LEFT_OF


# ---------------------------------------------------------------------------
# vertex links, boundary-parallel curves, essentiality


def _spokes(tri: Triangulation, vid: int) -> list[int]:
    """Interior edges crossed when walking around vertex vid just inside
    its triangle fan, in fan order."""
    v = tri.vertices[vid]
    corners = v["corners"]
    if v["boundary"]:
        corners = corners[:-1]  # the last corner's own side is the outgoing
        # boundary edge, which the walk does not cross
    out = []
    for (t, k) in corners:
        e, _s = tri.triangles[t][k]
        out.append(e)
    return out


def vertex_link_walk(tri: Triangulation, vid: int) -> list[int]:
    """Cyclic crossing sequence of the small circle around an interior
    vertex."""
    if tri.vertices[vid]["boundary"]:
        raise CurveError("vertex %d is not interior" % vid)
    return _spokes(tri, vid)


def puncture_link_curve(tri: Triangulation, vid: int) -> NormalCoordinates:
    return coords_from_crossings(tri, vertex_link_walk(tri, vid))


def boundary_parallel_curve(tri: Triangulation, label: str) -> NormalCoordinates:
    """Closed curve parallel to boundary component ``label``."""
    cycle = tri.boundary_cycles[label]
    edges: list[int] = []
    voc = tri.vertex_of_corner
    for (t, k) in cycle:
        # vertex at the head of this boundary side
        head = voc[(t, (k + 1) % 3)]
        edges.extend(_spokes(tri, head))
    coords = coords_from_crossings(tri, edges)
    if not is_matching(coords):
        raise ComputationError("boundary-parallel walk is not normal")
    return coords


def _puncture_link_set(tri: Triangulation) -> set[tuple[int, ...]]:
    key = "puncture_links"
    if key not in tri._cache:
        tri._cache[key] = {
            puncture_link_curve(tri, v).weights for v in tri.puncture_vertices
        }
    return tri._cache[key]


def is_puncture_parallel(c: NormalCoordinates) -> bool:
    return c.weights in _puncture_link_set(c.tri)


def _inessential_arcs(tri: Triangulation, label: str) -> dict:
    """All inessential (boundary-parallel) arc classes starting on the
    base edge of ``label``, keyed by (weights, start slot).

    An inessential arc cuts off a disc containing a proper chain of the
    component's boundary vertices and nothing else; both travel
    directions along the boundary from the base edge are generated.
    """
    key = ("inessential", label)
    if key in tri._cache:
        return tri._cache[key]
    eps = tri.base_edge_of[label]
    cycle = tri.boundary_cycles[label]
    m = len(cycle)
    voc = tri.vertex_of_corner
    base_pos = next(
        i for i, (t, k) in enumerate(cycle) if tri.triangles[t][k][0] == eps
    )
    found: dict = {}

    def note(arc):
        if arc is not None:
            found.setdefault((arc.coords.weights, arc.start), arc)

    # forward: cross the fans of the heads of sides base, base+1, ...,
    # ending on the boundary edge after the last fan
    walk: list[int] = []
    for step in range(m):
        t, k = cycle[(base_pos + step) % m]
        head = voc[(t, (k + 1) % 3)]
        walk = walk + _spokes(tri, head)
        t2, k2 = cycle[(base_pos + step + 1) % m]
        end_edge = tri.triangles[t2][k2][0]
        note(arc_from_walk(tri, label, walk + [end_edge]))
    # backward: cross the fans of the tails of sides base, base-1, ...
    walk = []
    for step in range(m):
        t, k = cycle[(base_pos - step) % m]
        tail = voc[(t, k)]
        walk = walk + list(reversed(_spokes(tri, tail)))
        t2, k2 = cycle[(base_pos - step - 1) % m]
        end_edge = tri.triangles[t2][k2][0]
        note(arc_from_walk(tri, label, walk + [end_edge]))
    tri._cache[key] = found
    return found


def is_essential(g: ArcClass) -> bool:
    """True iff the arc does not cobound a disc with a boundary sub-arc."""
    fam = _inessential_arcs(g.tri, g.start[0])
    return (g.coords.weights, g.start) not in fam


def enumerate_arcs(tri: Triangulation, C: str, weight_bound: int) -> list[ArcClass]:
    """All taut essential oriented arc classes starting on the base edge
    of C with total coordinate weight <= weight_bound, in a deterministic
    order, each exactly once."""
    if weight_bound < 0:
        raise CurveError("weight bound must be nonnegative")
    eps = tri.base_edge_of[C]
    (t0, k0) = tri.incidences[eps][0]
    found: dict = {}

    def dfs(t, k, walk):
        # the strand entered triangle t via side k; it may leave through
        # either other side
        for rel in (1, 2):
            k2 = (k + rel) % 3
            e2, _s2 = tri.triangles[t][k2]
            new_walk = walk + [e2]
            if tri.is_boundary_edge(e2):
                arc = arc_from_walk(tri, C, new_walk)
                if arc is not None and is_essential(arc):
                    found.setdefault((arc.coords.weights, arc.start), arc)
                continue
            if len(new_walk) + 2 <= weight_bound:
                t3, k3 = tri.other_incidence(e2, t, k2)
                dfs(t3, k3, new_walk)
            else:
                # one more boundary crossing would exceed the budget
                pass

    if weight_bound >= 2:
        dfs(t0, k0, [])
    arcs = sorted(
        found.values(),
        key=lambda a: (a.coords.total_weight, a.coords.weights, a.start[1]),
    )
    return arcs


# ---------------------------------------------------------------------------
# geometric intersection numbers


def geometric_intersection(a: NormalCoordinates, b: NormalCoordinates) -> int:
    """Minimal geometric intersection number i(a, b); exact and
    symmetric.  Pairs with at most OVERLAY_PAIR_LIMIT pairs of crossings
    on shared interior edges are overlaid strand by strand; above that
    the lighter side must decompose into closed non-puncture-parallel
    curves, whose intersection with the other side is read off from the
    stabilized growth rate under twisting."""
    if a.tri is not b.tri:
        raise CurveError("coordinates live on different triangulations")
    if a.weights == b.weights:
        return 0
    tri = a.tri
    pairs = sum(x * y for e, (x, y) in enumerate(zip(a.weights, b.weights))
                if len(tri.incidences[e]) == 2)
    if pairs <= OVERLAY_PAIR_LIMIT:
        return _overlay_intersection(a, b)
    over = "%d crossing pairs exceed the overlay cap of %d" % (
        pairs, OVERLAY_PAIR_LIMIT)
    small, big = (a, b) if a.total_weight <= b.total_weight else (b, a)
    if small.total_weight > OVERLAY_LIMIT:
        raise ComputationError("%s, and neither side can be decomposed" % over)
    total = 0
    for comp in trace_components(small):
        if comp["type"] != "closed":
            raise ComputationError(
                "%s, and the twist route needs a closed-curve side" % over
            )
        cw = coords_from_crossings(small.tri, comp["edges"])
        if is_puncture_parallel(cw):
            raise ComputationError(
                "%s, and the twist route is unavailable for puncture links"
                % over
            )
        total += _twist_growth_intersection(big, cw)
    return total


def _twist_growth_intersection(x: NormalCoordinates, c: NormalCoordinates) -> int:
    """i(x, c) for a closed essential curve c: after a short transient,
    each extra twist along c adds exactly i(x, c) parallel copies of c,
    so consecutive total-weight differences stabilize at i * |c|."""
    from .engine import twist_encoding

    enc = twist_encoding(c.tri, c.weights)
    totc = c.total_weight
    cur = x.weights
    prev_total = sum(cur)
    diffs = []
    for k in range(60):
        cur = enc.forward(cur)
        t = sum(cur)
        diffs.append(t - prev_total)
        prev_total = t
        if len(diffs) >= 4 and diffs[-1] == diffs[-2] == diffs[-3] == diffs[-4]:
            d = diffs[-1]
            if d % totc != 0 or d < 0:
                raise ComputationError("twist growth rate is not a multiple of |c|")
            return d // totc
    raise ComputationError("twist growth did not stabilize")


def _overlay_intersection(a: NormalCoordinates, b: NormalCoordinates) -> int:
    """Crossing count of the taut joint realization of a and b.

    Wherever an a-strand and a b-strand run through a common edge they
    share a maximal parallel run; the run forces exactly one crossing
    when the divergences at its two ends pin the strands to opposite
    sides of each other, and none otherwise (a free end on the boundary
    pins nothing, so runs through boundary edges are skipped).  Every
    conflicting run is seen exactly twice - once from each end, where the
    divergence is immediate - so conflicts are counted at
    immediate-divergence events and halved."""
    tri = a.tri
    cap = a.total_weight + b.total_weight + 2
    conflicts = 0
    for e in range(tri.edge_count):
        incs = tri.incidences[e]
        if len(incs) == 1 or a.weights[e] == 0 or b.weights[e] == 0:
            continue
        for i in range(a.weights[e]):
            for j in range(b.weights[e]):
                for idx, (t, k) in enumerate(incs):
                    sign = tri.triangles[t][k][1]
                    d_here = _lockstep(a, b, t, k, _position(a, t, k, i),
                                       _position(b, t, k, j), 1)
                    if not d_here:
                        continue  # not an end of the run on this side
                    # the far end: +1/-1 at a divergence, 0 when the run
                    # ends on the boundary or never ends (closed isotopic
                    # strands)
                    t2, k2 = incs[1 - idx]
                    sign2 = tri.triangles[t2][k2][1]
                    d_there = _lockstep(a, b, t2, k2, _position(a, t2, k2, i),
                                        _position(b, t2, k2, j), cap) or 0
                    if d_here * sign * d_there * sign2 == -1:
                        conflicts += 1
    if conflicts % 2 != 0:
        raise ComputationError("inconsistent overlay crossing parity")
    return conflicts // 2


# ---------------------------------------------------------------------------
# walk surgery: boundary dragging
#
# A desk-scale arc can be handled as its sequence of triangle passages
# (t, side in, side out).  Dragging an endpoint once around its boundary
# component (the effect of a boundary twist on that end) splices a
# collar-hugging wrap into the passage sequence; spur passages entering
# and leaving through the same side are then cancelled in a stack pass,
# which restores normality.
#
# The drag (``boundary_drag`` with ``arc_passages``, ``reduce_passages``
# and ``_arc_from_passages``) is not on any computation path: the Key
# Lemma replays the compiled boundary letter.  It stays as the tests'
# independent construction of T_C, against which every boundary letter
# is checked, and because ``bench/tracer.py`` wraps ``boundary_drag`` by
# name.  ``_boundary_wrap`` and ``collar_laps`` serve the Key Lemma
# search.


def arc_passages(g: ArcClass):
    """Passage list [(t, k_in, k_out), ...] of the arc's taut strand."""
    tri = g.tri
    c = g.coords
    eps = tri.base_edge_of[g.start[0]]
    (t, k) = tri.incidences[eps][0]
    q = _position(c, t, k, g.start[1])
    passages = list(_walk(c, t, k, q, c.total_weight + 1))
    if not tri.is_boundary_edge(passages[-1][3]):
        raise ComputationError("passage trace exceeded the weight budget")
    return [p[:3] for p in passages]


def reduce_passages(tri: Triangulation, passages):
    """Cancel spur passages (k_in == k_out).  Removing a spur merges its
    two neighbours, which sit in one triangle on the near side of the
    doubled edge; cascades are handled by re-checking the merged result."""
    out: list = []
    pending = None  # passage awaiting its post-spur continuation
    for p in passages:
        while True:
            if pending is not None:
                prev = pending
                pending = None
                if p[0] != prev[0] or p[1] != prev[2]:
                    raise ComputationError("spur continuation mismatch")
                p = (prev[0], prev[1], p[2])
            if p[1] == p[2]:
                if not out:
                    raise ComputationError("walk retracts into the boundary")
                prevp = out.pop()
                if tri.triangles[prevp[0]][prevp[2]][0] != tri.triangles[p[0]][p[1]][0]:
                    raise ComputationError("spur does not match its neighbour")
                pending = prevp
                break
            out.append(p)
            break
    if pending is not None:
        raise ComputationError("walk ends in an unresolved spur")
    return out


def _check_direction(direction: int):
    if direction not in (1, -1):
        raise CurveError("drag direction must be 1 or -1, not %r"
                         % (direction,))


def _boundary_wrap(tri: Triangulation, label: str, direction: int,
                   start_edge: int = None):
    """Passages of one collar-hugging loop just inside boundary component
    ``label``, leaving ``start_edge`` (the base edge by default) and
    stopping just before it would cross that edge again.  direction +1
    rounds the head vertex of each entry side (travel along the boundary
    orientation), -1 the tail vertex.  Returns (passages, final entry
    side in the start edge's triangle)."""
    eps = tri.base_edge_of[label] if start_edge is None else start_edge
    (t0, k0) = tri.incidences[eps][0]
    prefer = 1 if direction == 1 else 2
    other = 3 - prefer
    passages = []
    t, kin = t0, k0
    guard = 6 * len(tri.triangles) + 4
    while guard > 0:
        guard -= 1
        kout = (kin + prefer) % 3
        e = tri.triangles[t][kout][0]
        if tri.is_boundary_edge(e) and e != eps:
            kout = (kin + other) % 3
            e = tri.triangles[t][kout][0]
            if tri.is_boundary_edge(e) and e != eps:
                raise ComputationError("collar wrap trapped in a corner triangle")
        if e == eps:
            return passages, kin
        passages.append((t, kin, kout))
        t, kin = tri.other_incidence(e, t, kout)
    raise ComputationError("collar wrap did not close up")


def collar_laps(g: ArcClass, direction: int) -> int:
    """Whole laps the arc's strand makes around the collar of its start
    component, in the sense of ``direction`` (as in ``_boundary_wrap``),
    before it first leaves the collar.  The first lap is the wrap from
    the base edge, walked passage by passage; every later lap repeats the
    collar loop, and the lap map of that loop (``_lap_map``) counts them
    in one pass, however many there are."""
    _check_direction(direction)
    tri = g.tri
    label = g.start[0]
    wrap, kin = _boundary_wrap(tri, label, direction)
    t0, k0, _k1 = wrap[0]
    c = g.coords
    budget = c.total_weight + 1
    first = list(_walk(c, t0, k0, _position(c, t0, k0, g.start[1]),
                       min(budget, len(wrap))))
    if [p[2] for p in first] != [k_out for (_t, _k, k_out) in wrap]:
        return 0
    _entry, loop = _collar_loop(tri, label, direction, tri.base_edge_of[label])
    q = _position(c, t0, kin, first[-1][4])
    laps, _shift = _lap_map(c.weights, loop, q,
                            (budget - len(loop)) // len(loop))
    return 1 + laps


def _arc_from_passages(tri: Triangulation, label: str, passages) -> ArcClass:
    walk = [tri.triangles[t][kout][0] for (t, _kin, kout) in passages]
    arc = arc_from_walk(tri, label, walk)
    if arc is None:
        raise ComputationError("dragged walk is not a single taut arc")
    return arc


def boundary_drag(g: ArcClass, label: str, direction: int) -> ArcClass:
    """Image of the arc under one rotation of the collar of ``label``:
    every endpoint on that component is dragged once around it, in the
    boundary orientation for direction +1.  Both endpoints are handled in
    a single splice; dragging them one at a time is not an embedded
    operation when they share the component.

    The tests' reference for the boundary twist letter; no computation
    calls it (``bench/tracer.py`` names it)."""
    _check_direction(direction)
    tri = g.tri
    orig = arc_passages(g)
    end_label, _end_slot = g.end()
    drag_s = g.start[0] == label
    drag_e = end_label == label
    if not drag_s and not drag_e:
        return g
    if len(orig) < 2 and drag_s and drag_e:
        raise CurveError("cannot drag a boundary-parallel sliver arc")
    seq: list = []
    if drag_s:
        eps = tri.base_edge_of[g.start[0]]
        (t0, k0) = tri.incidences[eps][0]
        first = orig[0]
        if first[0] != t0 or first[1] != k0:
            raise ComputationError("arc does not start on the base edge")
        wrap, kin_final = _boundary_wrap(tri, label, direction)
        seq.extend(wrap)
        seq.append((t0, kin_final, first[2]))
        body_start = 1
    else:
        body_start = 0
    body_end = len(orig) - 1 if drag_e else len(orig)
    seq.extend(orig[body_start:body_end])
    if drag_e:
        last = orig[-1]
        e_end = tri.triangles[last[0]][last[2]][0]
        (t1, k1) = tri.incidences[e_end][0]
        if (t1, k1) != (last[0], last[2]):
            raise ComputationError("arc does not end on a boundary edge")
        # the appended end trajectory runs through the collar opposite to
        # the prepended start one, so splice the end edge's wrap reversed
        wrap_e, kin_e = _boundary_wrap(tri, label, direction, e_end)
        seq.append((t1, last[1], kin_e))
        seq.extend((t, ko, ki) for (t, ki, ko) in reversed(wrap_e))
    reduced = reduce_passages(tri, seq)
    start_label = g.start[0]
    return _arc_from_passages(tri, start_label, reduced)
