"""Isotopy classes of properly embedded arcs and simple closed curves in
normal coordinates, the boundary ordering, essentiality and geometric
intersection numbers.

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

import enum

from .errors import CurveError, ComputationError
from .surface import Record, Triangulation, checked_type

# ``trace_components`` materializes individual strands; it refuses
# coordinates with more crossings than this
OVERLAY_LIMIT = 200_000


class Ordering(enum.Enum):
    RIGHT_OF = "RightOf"  # gamma1 > gamma2: gamma2 strictly right of gamma1
    LEFT_OF = "LeftOf"
    EQUAL = "Equal"


class NormalCoordinates:
    """Edge weights of a taut multicurve/multiarc on a triangulation."""

    __slots__ = ("tri", "weights")

    def __init__(self, tri: Triangulation, weights):
        self.tri = tri
        w = tuple(weights)
        if len(w) != tri.edge_count:
            raise CurveError(
                "expected %d weights, got %d" % (tri.edge_count, len(w))
            )
        if not all(type(x) is int and x >= 0 for x in w):  # not bool
            raise CurveError("edge weights must be non-negative integers, "
                             "not %r" % (w,))
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

    def ends_on(self, label: str) -> int:
        """The number of strand ends on boundary component ``label``: the
        weight there, since only an end crosses a boundary edge."""
        return sum(self.weights[e] for e, lab
                   in self.tri.boundary_label_of_edge.items() if lab == label)


def is_matching(c: NormalCoordinates) -> bool:
    """Whether the weights meet the matching conditions: in every
    triangle an even total and the three triangle inequalities."""
    for sides in c.tri.triangles:
        (x, y, z) = (c.weights[e] for (e, _s) in sides)
        if (x + y + z) % 2 or x > y + z or y > z + x or z > x + y:
            return False
    return True


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
# it stops after yielding an exit through a boundary edge.  It traces a
# whole strand from a crossing only in ``trace_strand``.  ``_lockstep``
# follows two strands that enter one triangle side together and returns
# at their first divergence: +1 when the second strand leaves through the
# k+1 side (the right flank), -1 when it leaves through the k+2 side, 0
# when both leave through the same boundary edge.  The budget of either
# is the number of triangle passages it may make; when it runs out,
# ``_walk`` simply stops and ``_lockstep`` returns None, and the caller
# decides whether that is an error.
#
# A strand spiralling around a boundary component repeats one collar loop
# of passages: the one walk around the component (``_collar_walk``),
# cancelled cyclically (``_collar_loop``).  The collar is an annulus, so
# one lap moves the strand's entry position q by a constant, q -> q + B,
# and the positions that complete a lap form a range [lo, hi); one pass
# over the loop reads both off (``_lap_map``), and the number of whole
# laps is one integer division.  ``_lockstep`` jumps over the whole laps
# that both strands make together, counting the skipped passages against
# its budget, so a spiral costs one pass instead of one per lap.

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


def _cancel(gluing, exits: list, sides) -> list:
    """Extend ``exits``, the sides (t, k) a walk has left its triangles
    by, with ``sides``; every edge crossed twice in a row cancels: a walk
    that leaves a triangle by the side it entered by crosses that edge
    straight back."""
    for x in sides:
        if exits and gluing[exits[-1][0]][exits[-1][1]][:2] == x:
            exits.pop()
        else:
            exits.append(x)
    return exits


def _collar_walk(tri: Triangulation, label: str, direction: int, side: int):
    """The walk just inside boundary component ``label`` from its boundary
    side number ``side`` once round to that side.  It goes around the
    component's boundary vertices in turn, crossing the interior edges
    of each vertex's fan: the head vertex of each side for direction +1
    (the boundary orientation), the tail vertex for -1.  Every edge
    crossed twice in a row cancels (``_cancel``): the third side of an
    ear, a triangle with two boundary sides, which the walk would enter
    and leave again.  After each vertex it yields the sides (t, k) the
    walk has left its triangles by so far, one list grown in place."""
    cycle = tri.boundary_cycles[label]
    gluing = _gluing(tri)
    exits: list = []
    for i in range(len(cycle)):
        t, k = cycle[(side + direction * i) % len(cycle)]
        corner = (t, (k + 1) % 3) if direction == 1 else (t, k)
        spokes = tri.vertices[tri.vertex_of_corner[corner]]["corners"][:-1]
        if direction == -1:  # crossed the other way, from the far side
            spokes = [gluing[t2][k2][:2] for (t2, k2) in reversed(spokes)]
        yield _cancel(gluing, exits, spokes)


def _collar_loop(tri: Triangulation, label: str, direction: int, edge: int):
    """((t, k), loop, lead): the collar loop of ``label`` run in
    ``direction``, entered through side k of triangle t, and the exit
    sides k_out of the passages that a strand spiralling around the
    collar from boundary edge ``edge`` makes first.  The walk from that
    edge (``_collar_walk``) and back out through it is an approach to the
    loop, one lap of it and the way back, which cancel cyclically; the
    loop is entered where the approach joins it, and ``lead`` is the
    approach and one lap.  Each passage of the loop is (entry edge, k+1
    edge, k+2 edge, whether it leaves by the k+2 side, the exit edge when
    the gluing reverses positions there or -1); on the bare disc the loop
    is empty."""
    key = ("collar_loop", label, direction, edge)
    if key not in tri._cache:
        gluing = _gluing(tri)
        start = tri.incidences[edge][0]
        *_, exits = _collar_walk(tri, label, direction,
                                 tri.boundary_cycles[label].index(start))
        # entries[i]: the side passage i enters its triangle by
        entries = [start] + [gluing[t][k][:2] for (t, k) in exits]
        n = len(exits)
        r = 0  # the approach, crossed back at the end of the walk
        while 2 * r + 1 < n and entries[n - r] == exits[r]:
            r += 1
        loop = []
        for (t, k), (_t, k2) in zip([entries[n - r]] + entries[r + 1:n - r],
                                    exits[r:n - r]):
            sides = tri.triangles[t]
            loop.append((sides[k][0], sides[_NEXT[k]][0], sides[_PREV[k]][0],
                         k2 == _PREV[k],
                         sides[k2][0] if gluing[t][k2][2] else -1))
        tri._cache[key] = (entries[n - r], tuple(loop),
                           tuple(k2 for (_t, k2) in exits[:n - r]))
    return tri._cache[key]


def _collar_entries(tri: Triangulation):
    """entries[t][k]: the distinct collar loops entered through side k of
    triangle t, for every boundary edge and both directions."""
    if "collar_entries" not in tri._cache:
        table = [[(), (), ()] for _ in tri.triangles]
        for label, boundary in tri.boundary_cycles.items():
            for (t, k) in boundary:
                for direction in (1, -1):
                    edge = tri.triangles[t][k][0]
                    (t1, k1), loop, _lead = _collar_loop(
                        tri, label, direction, edge)
                    if loop and loop not in table[t1][k1]:
                        table[t1][k1] += (loop,)
        tri._cache["collar_entries"] = table
    return tri._cache["collar_entries"]


def trace_strand(c: NormalCoordinates, e: int, slot: int) -> list:
    """Passages (t, k_in, k_out, exit edge, exit slot) of the strand
    through crossing ``slot`` of edge e.  From a boundary edge the strand
    runs to the boundary edge where its arc ends; from an interior
    crossing it runs once round, back to that crossing."""
    tri = c.tri
    (t, k) = tri.incidences[e][0]
    passages = []
    for p in _walk(c, t, k, _position(c, t, k, slot), c.total_weight + 1):
        passages.append(p)
        if p[3] == e and p[4] == slot:
            return passages
    if not tri.is_boundary_edge(passages[-1][3]):
        raise ComputationError("strand trace exceeded the total weight budget")
    if not tri.is_boundary_edge(e):
        raise CurveError("open strand not anchored on the boundary")
    return passages


def trace_components(c: NormalCoordinates):
    """Decompose desk-scale coordinates into strand components.

    Returns a list of dicts with keys type ('arc'|'closed') and edges,
    the edges of every crossing of the component; the arcs come first,
    each traced from its crossing on the lower boundary edge."""
    tri = c.tri
    if c.total_weight > OVERLAY_LIMIT:
        raise ComputationError("coordinates too large to decompose explicitly")
    visited = set()
    comps = []
    for e in sorted(range(tri.edge_count), key=lambda e: not tri.is_boundary_edge(e)):
        arc = tri.is_boundary_edge(e)
        for slot in range(c.weights[e]):
            if (e, slot) in visited:
                continue
            # a closed strand's passages end back at its start crossing
            crossings = [(e, slot)] * arc + [p[3:] for p in trace_strand(c, e, slot)]
            visited.update(crossings)
            comps.append({"type": "arc" if arc else "closed",
                          "edges": [x for (x, _slot) in crossings]})
    return comps


def coords_from_crossings(tri: Triangulation, edges) -> NormalCoordinates:
    w = [0] * tri.edge_count
    for e in edges:
        w[e] += 1
    return NormalCoordinates(tri, w)


# ---------------------------------------------------------------------------
# arcs


class ArcClass(Record):
    """Oriented essential-or-not arc starting on the base edge of a
    boundary component.  ``start`` is (boundary label, slot index on that
    component's base edge)."""

    __slots__ = ("coords", "start")

    def __init__(self, coords: NormalCoordinates, start: tuple[str, int]):
        label, slot = start
        tri = coords.tri
        if label not in tri.base_edge_of:
            raise CurveError("unknown boundary label %r" % label)
        checked_type(slot, int, "start slot", CurveError)
        if not 0 <= slot < coords.weights[tri.base_edge_of[label]]:
            raise CurveError("start slot %d out of range on base edge" % slot)
        super().__init__(coords, start)

    @property
    def tri(self) -> Triangulation:
        return self.coords.tri

    def passages(self) -> list:
        """The passages of the arc's strand, as ``trace_strand`` gives them."""
        return trace_strand(self.coords, self.tri.base_edge_of[self.start[0]],
                            self.start[1])


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
            edges = [p[3] for p in trace_strand(coords, eps, slot)]
        except ComputationError:
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


def puncture_link_curve(tri: Triangulation, vid: int) -> NormalCoordinates:
    """The small circle around interior vertex vid: it crosses the side
    of every corner of the vertex's fan."""
    v = tri.vertices[vid]
    if v["boundary"]:
        raise CurveError("vertex %d is not interior" % vid)
    return coords_from_crossings(tri, [tri.triangles[t][k][0]
                                       for (t, k) in v["corners"]])


def boundary_parallel_curve(tri: Triangulation, label: str) -> NormalCoordinates:
    """Closed curve parallel to boundary component ``label``: the exit
    edges of its collar loop (``_collar_loop``).  The loop has no spur
    passage, so its weights meet the matching conditions."""
    _entry, loop, _lead = _collar_loop(tri, label, 1,
                                       tri.base_edge_of[label])
    return coords_from_crossings(tri, [e2 if left else e1 for
                                       (_e0, e1, e2, left, _f) in loop])


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
    directions along the boundary from the base edge, which starts the
    boundary cycle, are generated.
    """
    key = ("inessential", label)
    if key in tri._cache:
        return tri._cache[key]
    cycle = tri.boundary_cycles[label]
    found: dict = {}
    # the walk from the base edge (``_collar_walk``), which starts the
    # cycle, each way round: each prefix that ends after a vertex, closed
    # by the boundary side after that vertex
    for direction in (1, -1):
        for i, exits in enumerate(_collar_walk(tri, label, direction, 0), 1):
            walk = [tri.triangles[t][k][0]
                    for (t, k) in exits + [cycle[direction * i % len(cycle)]]]
            arc = arc_from_walk(tri, label, walk)
            if arc is not None:
                found.setdefault((arc.coords.weights, arc.start), arc)
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
            # one more boundary crossing must not exceed the budget
            if len(new_walk) + 2 <= weight_bound:
                t3, k3 = tri.other_incidence(e2, t, k2)
                dfs(t3, k3, new_walk)

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
    symmetric.  One side must be closed: it has no boundary weight, so
    no arc ends (the lighter side if both qualify).  It decomposes into
    closed curves (``trace_components``).  A puncture-parallel curve
    bounds a once-punctured disc and meets nothing.  Any other curve c
    meets the other side x as often as each twist along c grows x, since
    i(T_c^k(x), x) = |k| i(x, c)^2.

    Carried to c's annular position, where c crosses the edges e and f
    once each, the twist is the core of a twist run (``engine.TwistRun``):
    each twist changes only t_0 = w[e] and t_1 = w[f].  After at most two
    twists the run is affine (2 t_1 >= w[p] + w[q]).  A growing affine
    stretch then adds d = t_1 - t_0 = i(x, c) copies of c per twist for
    good, and a shrinking one bounces into a growing one of difference
    -d, so i(x, c) = |t_1 - t_0|.  A curve around a one-edge boundary
    component has no annular position; it meets x once per end of x on
    that component."""
    from .engine import letter_parts

    if a.tri is not b.tri:
        raise CurveError("coordinates live on different triangulations")
    tri = a.tri
    closed = [y for y in (a, b)
              if not any(y.weights[e] for e in tri.boundary_label_of_edge)]
    if not closed:
        raise CurveError("intersection numbers need a closed side; "
                         "both sides carry arc ends")
    side = min(closed, key=lambda y: y.total_weight)
    x = b if side is a else a
    one_edge = {boundary_parallel_curve(tri, lab).weights: lab
                for lab, cycle in tri.boundary_cycles.items()
                if len(cycle) == 1}
    total = 0
    for comp in trace_components(side):
        c = coords_from_crossings(tri, comp["edges"])
        if is_puncture_parallel(c):
            continue
        if c.weights in one_edge:
            total += x.ends_on(one_edge[c.weights])
        else:
            conj, core, _ = letter_parts(tri, "twist", c.weights, 1)
            e, f, p, q = core.annular_twist()
            w = conj.forward(x.weights)
            while 2 * w[f] < w[p] + w[q]:
                w = core.forward(w)
            total += abs(w[f] - w[e])
    return total


# ---------------------------------------------------------------------------
# walk surgery: boundary dragging
#
# A desk-scale arc can be handled as the sides (t, k) its strand leaves
# its triangles by.  Dragging an endpoint once around its boundary
# component (the effect of a boundary twist on that end) splices the
# collar walk (``_collar_walk``) into that list: the walk from the base
# edge before the arc's own sides, and the walk from the far end's edge,
# reversed, before its last one.  Every edge then crossed straight back
# cancels, by the collar walk's own rule (``_cancel``), which restores
# normality.
#
# The drag is not on any computation path: the Key Lemma replays the
# compiled boundary letter.  It stays as the tests' independent
# construction of T_C, against which every boundary letter is checked,
# and because ``bench/tracer.py`` wraps ``boundary_drag`` by name.
# ``collar_laps`` reads the same walk, through its collar loop
# (``_collar_loop``), for the Key Lemma search.


def _check_direction(direction: int):
    if direction not in (1, -1):
        raise CurveError("drag direction must be 1 or -1, not %r"
                         % (direction,))


def collar_laps(g: ArcClass, direction: int) -> int:
    """Whole laps the arc's strand makes around the collar of its start
    component, in the sense of ``direction`` (as in ``_collar_walk``),
    before it first leaves the collar.  The first lap is the collar walk
    from the base edge up to the end of its lap of the collar loop
    (``_collar_loop``), walked passage by passage: the approach, empty
    unless ears around the base edge hang off the rest of the surface by
    one edge, which the walk crosses out and back, and one lap.  Every
    later lap repeats the loop, and the lap map of that loop
    (``_lap_map``) counts them in one pass, however many there are.  The
    bare disc has no collar loop, and no laps."""
    _check_direction(direction)
    tri = g.tri
    label = g.start[0]
    eps = tri.base_edge_of[label]
    (t1, k1), loop, lead = _collar_loop(tri, label, direction, eps)
    if not loop:
        return 0
    (t0, k0) = tri.incidences[eps][0]
    c = g.coords
    budget = c.total_weight + 1
    first = list(_walk(c, t0, k0, _position(c, t0, k0, g.start[1]),
                       min(budget, len(lead))))
    if tuple(p[2] for p in first) != lead:
        return 0
    q = _position(c, t1, k1, first[-1][4])
    laps, _shift = _lap_map(c.weights, loop, q,
                            (budget - len(lead)) // len(loop))
    return 1 + laps


def boundary_drag(g: ArcClass, label: str, direction: int) -> ArcClass:
    """Image of the arc under one rotation of the collar of ``label``:
    every endpoint on that component is dragged once around it, in the
    boundary orientation for direction +1.  Both endpoints are handled in
    a single splice; dragging them one at a time is not an embedded
    operation when they share the component.

    The dragged arc leaves its triangles by the sides of the collar walk
    from the base edge, when the arc starts on ``label``; then by the
    arc's own sides, with those of the walk from its far end's edge,
    reversed, before its last one when that end is on ``label``.  Every
    edge crossed straight back cancels (``_cancel``), and
    ``arc_from_walk`` reads the arc off the crossed edges.

    The tests' reference for the boundary twist letter; no computation
    calls it (``bench/tracer.py`` names it)."""
    _check_direction(direction)
    tri = g.tri
    drag_s = g.start[0] == label
    # the far end is on label when label holds more ends than the start
    drag_e = g.coords.ends_on(label) > drag_s
    if not drag_s and not drag_e:
        return g
    gluing = _gluing(tri)
    sides = [(t, k_out) for (t, _k, k_out, _e, _slot) in g.passages()]
    if drag_e:
        *_, back = _collar_walk(tri, label, direction,
                                tri.boundary_cycles[label].index(sides[-1]))
        sides[-1:-1] = [gluing[t][k][:2] for (t, k) in reversed(back)]
    exits: list = []
    if drag_s:
        *_, exits = _collar_walk(tri, label, direction, 0)
    arc = arc_from_walk(tri, g.start[0], [tri.triangles[t][k][0] for (t, k)
                                          in _cancel(gluing, exits, sides)])
    if arc is None:
        raise ComputationError("dragged walk is not a single taut arc")
    return arc
