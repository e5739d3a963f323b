"""Edge flips, curve shortening, and Dehn twist encodings.

A flip replaces the diagonal of the square formed by the two triangles
adjacent to an interior edge.  On normal coordinates it acts by the
max-plus rule w'(e) = max(w_a + w_c, w_b + w_d) - w(e) where a, b, c, d
are the square's sides in cyclic order; all other weights are untouched.
The rule only mentions edge ids, so a flip recorded once as the tuple
(e, a, b, c, d) can later be replayed on any weight vector, and the same
formula undoes itself.

An ``Encoding`` is the one compiled form of a mapping class: steps
replayed in place on one list of weights, then one renaming of the
edges.  A step is a flip or a twist run: k copies of an annular twist
core (one flip, then the swap of the flipped edge with the other edge
its curve crosses), replayed in closed form by ``_twist_run``.  A
replayed flip is two sums, one comparison and a difference; the inverse
renaming is worked out once per encoding.  Composition, inversion and
powers push every renaming to the end by renaming the edge ids of the
steps behind it.  ``compose`` walks a list of encodings once, reading
the steps of each through a running table of the inverse renaming so
far, which each encoding's own inverse renaming advances by one read.
The k-th power of a twist core is one twist run; any other power
repeats and cuts the copy cycle of its core (the copies up to the
period of the core's renaming).  The core keeps that cycle, its inverse
and whether it is a twist core, each worked out on first use.  No
script longer than ``_SCRIPT_CAP`` steps is built: asking for one
raises ComputationError with its length and the cap.

A Dehn twist along a simple closed curve is compiled into such a script:
flip until the curve crosses just two edges once each (so two triangles
form its annular neighbourhood), do the twist there as one flip plus the
edge renaming that restores the triangulation, then undo the preparatory
flips.  The orientation of the two triangles says which flip is the
right-handed twist.  The braid generator sigma_i is built the same way
around the curve enclosing punctures i and i+1, where the half twist is
three flips next to the once-punctured monogon around one of them.
Neither move involves a search beyond the shortening.  Each letter is
compiled once into (conjugator, core move, inverse conjugator) and kept
in the triangulation's letter cache; its k-th power puts the core's
k-th power between the two, and a word composes those three parts of
all its letters in one pass.  Applying the script is pure big-integer
arithmetic, and a twist letter's power costs the same at any k, which
is what makes high twist powers on huge coordinates affordable.

The twist along a boundary component that is a single edge, whose curve
has no annular position on a one-boundary surface without punctures,
turns the component's marked point once around it by fixed flips.  No
letter is reconstructed from probe images; ``encoding_from_probe_images``
remains as the tests' reference.
"""

from __future__ import annotations

import heapq

from .errors import TriangulationError, ComputationError, CurveError
from .surface import Triangulation
from . import curves as _curves

_SEARCH_CAP = 20000  # states explored when shortening a curve
_PROBE_SEARCH_CAP = 200000  # states explored when reconstructing from probes
# steps (flips or twist runs) in one script; one replay of that many
# flips takes ~2 s
_SCRIPT_CAP = 10 ** 7


def _renaming(perm):
    """perm (perm[old] = new) as a tuple, or None if it renames nothing."""
    if perm is None or all(i == new for i, new in enumerate(perm)):
        return None
    return tuple(perm)


def _inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(inv)


def _then(p, q):
    """The renaming p followed by q."""
    if p is None or q is None:
        return p or q
    return _renaming([q[new] for new in p])


class TwistRun(tuple):
    """The step (e, x, a, c, k): k >= 1 copies of an annular twist core,
    the flip (e, a, x, c, x) followed by the swap of e and x, where a
    and c are neither e nor x.

    With t_0 = w[e], t_1 = w[x] and S = w[a] + w[c], which the run never
    changes, copy n + 1 gives t_{n+1} = max(S, 2 t_n) - t_{n-1}, and
    after k copies w[e] = t_k and w[x] = t_{k+1}.  While 2 t_n >= S the
    rule is affine: t_{n+1} - t_n = t_n - t_{n-1} = d.  If moreover
    d >= 0, then t_{n+1} >= t_n, so 2 t_{n+1} >= S and the difference
    stays d: the rule is affine for every later copy.  So ``_twist_run``
    takes each affine stretch in one integer division: a shrinking one
    (d < 0, the run unwinding an opposite spiral) until 2 t < S, where
    at most two single copies bounce it into a growing one (d > 0), and
    the growing one to the end."""

    __slots__ = ()


def _twist_run(w, run):
    """Replay the twist run on the weights w in place.  Inside an affine
    stretch the values are monotone, so its first and last value are
    the ones to check: the flip-by-flip replay produces a negative
    weight exactly when one of them is negative."""
    e, x, a, c, k = run
    s = w[a] + w[c]
    t0, t1 = w[e], w[x]
    while k:
        if 2 * t1 < s:  # the max is S: one copy on its own
            t0, t1, n = t1, s - t0, 1
            low = t1
        else:
            d = t1 - t0
            n = k if d >= 0 else min(k, (2 * t1 - s) // (-2 * d) + 1)
            low = t1 + d if d >= 0 else t1 + n * d
            t0, t1 = t1 + (n - 1) * d, t1 + n * d
        if low < 0:
            raise ComputationError("flip produced a negative weight")
        k -= n
    w[e], w[x] = t0, t1


def _read_through(steps, table):
    """The steps with every edge id x replaced by table[x]; a twist run
    keeps its count."""
    out = []
    for step in steps:
        e, a, b, c, d = step
        if type(step) is tuple:
            out.append((table[e], table[a], table[b], table[c], table[d]))
        else:
            out.append(TwistRun((table[e], table[a], table[b], table[c], d)))
    return out


def _undone(steps):
    """The steps that undo ``steps``, last first: a flip undoes itself,
    and the run (e, x, a, c, k) is undone by (x, e, a, c, k)."""
    return tuple(step if type(step) is tuple else
                 TwistRun((step[1], step[0]) + step[2:])
                 for step in reversed(steps))


def _segments(steps):
    """The steps as (flips, run) pairs: a stretch of flips, then one
    twist run, or None after the last stretch."""
    if TwistRun not in map(type, steps):
        return ((steps, None),)
    out, start = [], 0
    for i, step in enumerate(steps):
        if type(step) is TwistRun:
            out.append((steps[start:i], step))
            start = i + 1
    out.append((steps[start:], None))
    return tuple(out)


def _check_length(n: int):
    """Refuse to build a script of n steps beyond _SCRIPT_CAP."""
    if n > _SCRIPT_CAP:
        raise ComputationError("script of %d flips exceeds the cap of %d"
                               % (n, _SCRIPT_CAP))


class Encoding:
    """A replayable mapping class on edge weights: the steps ``steps``,
    each a flip (e, a, b, c, d) or a ``TwistRun``, then the edge
    renaming ``perm``.

    The inverse encoding, the stretches of flips between twist runs, the
    copy cycle of ``power`` and whether the encoding is an annular twist
    core (``_twist``, False until decided) are filled in on first use and
    kept, so a letter core in the letter cache computes each of them
    once."""

    __slots__ = ("steps", "perm", "_unrename", "_inverted", "_segments",
                 "_cycle", "_twist")

    def __init__(self, steps, perm=None):
        self.steps = tuple(steps)
        self.perm = _renaming(perm)
        self._unrename = None if self.perm is None else _inverse(self.perm)
        self._inverted = self._segments = self._cycle = None
        self._twist = False

    def forward(self, w):
        w = list(w)
        if self._segments is None:
            self._segments = _segments(self.steps)
        for flips, run in self._segments:
            for e, a, b, c, d in flips:
                p = w[a] + w[c]
                q = w[b] + w[d]
                x = (p if p >= q else q) - w[e]
                if x < 0:
                    raise ComputationError("flip produced a negative weight")
                w[e] = x
            if run is not None:
                _twist_run(w, run)
        if self._unrename is not None:
            w = [w[old] for old in self._unrename]
        return tuple(w)

    def inverted(self) -> "Encoding":
        # the renaming is undone first, so the undoing steps read through it
        if self._inverted is None:
            steps = _undone(self.steps)
            if self.perm is None:
                self._inverted = Encoding(steps)
            else:
                self._inverted = Encoding(_read_through(steps, self.perm),
                                          _inverse(self.perm))
        return self._inverted

    def __add__(self, other: "Encoding") -> "Encoding":
        """self, then other."""
        return compose((self, other))

    def annular_twist(self):
        """(e, x, a, c) when this encoding is an annular twist core: the
        one flip (e, a, x, c, x), then the swap of e and x, with a and c
        outside {e, x}; else None.  Decided once per encoding."""
        if self._twist is False:
            self._twist = None
            if (len(self.steps) == 1 and type(self.steps[0]) is tuple
                    and self.perm is not None):
                e, a, x, c, y = self.steps[0]
                if y == x and x != e and not {a, c} & {e, x}:
                    swap = list(range(len(self.perm)))
                    swap[e], swap[x] = x, e
                    if self.perm == tuple(swap):
                        self._twist = (e, x, a, c)
        return self._twist

    def power(self, k: int) -> "Encoding":
        """self repeated k times (the inverse repeated -k times if k < 0).

        The power of an annular twist core is one ``TwistRun``.  Any
        other power is built copy by copy: copy j runs after j
        renamings, so its steps are read through perm^-j.  The copies
        repeat with the period p of perm (2 to 6 for the letter cores of
        the standard triangulations), so the first p copies are built
        once and kept with perm^j for j < p; the power is that cycle
        repeated and cut.  A power longer than _SCRIPT_CAP steps raises
        ComputationError before anything is built."""
        if k <= 0:
            return self.inverted().power(-k) if k else Encoding(())
        if k == 1:
            return self
        twist = self.annular_twist()
        if twist is not None:
            return Encoding((TwistRun(twist + (k,)),))
        _check_length(k * len(self.steps))
        if self._cycle is None:
            shifts = [None]  # perm^j for j = 0, 1, ... below perm's period
            while (nxt := _then(shifts[-1], self.perm)) is not None:
                shifts.append(nxt)
            self._cycle = compose((self,) * len(shifts)).steps, shifts
        cycle, shifts = self._cycle
        whole, part = divmod(k, len(shifts))
        return Encoding(cycle * whole + cycle[:part * len(self.steps)],
                        shifts[part])


def compose(encodings) -> Encoding:
    """The encodings one after another, as one Encoding.  Each one's steps,
    if it has any, are read through a running table of the inverse of the
    renamings before it, which an encoding with a renaming advances by one
    read of its own inverse; the table is inverted once at the end.  The whole
    length is checked once, first: a script longer than _SCRIPT_CAP steps
    raises ComputationError before anything is built."""
    encodings = tuple(encodings)
    _check_length(sum([len(enc.steps) for enc in encodings]))
    steps, unrename = [], None
    for enc in encodings:
        if unrename is None:
            steps += enc.steps
            unrename = enc._unrename
        else:
            if enc.steps:
                steps += _read_through(enc.steps, unrename)
            if enc._unrename is not None:
                unrename = [unrename[u] for u in enc._unrename]
    return Encoding(steps, unrename and _inverse(unrename))


def _flip_blocks(step, v, m):
    """The flip replayed on each length-m block of the stacked vector v,
    or None if it produces a negative weight."""
    e, a, b, c, d = step
    out = list(v)
    for j in range(0, len(v), m):
        x = max(v[j + a] + v[j + c], v[j + b] + v[j + d]) - v[j + e]
        if x < 0:
            return None
        out[j + e] = x
    return tuple(out)


def flip(tri: Triangulation, e: int):
    """Flip interior edge e.  Returns (new triangulation, (e, a, b, c, d))."""
    if tri.is_boundary_edge(e):
        raise TriangulationError("cannot flip boundary edge %d" % e)
    incs = tri.incidences[e]
    if len(incs) != 2:
        raise TriangulationError("edge %d is not interior" % e)
    (t1, k1), (t2, k2) = incs
    if t1 == t2:
        raise TriangulationError(
            "edge %d is a self-folded diagonal and cannot be flipped" % e
        )
    if tri.triangles[t1][k1][1] == 1:
        tp, ip, tm, im = t1, k1, t2, k2
    else:
        tp, ip, tm, im = t2, k2, t1, k1
    a = tri.triangles[tp][(ip + 1) % 3]
    b = tri.triangles[tp][(ip + 2) % 3]
    c = tri.triangles[tm][(im + 1) % 3]
    d = tri.triangles[tm][(im + 2) % 3]
    new_triangles = list(tri.triangles)
    new_triangles[tp] = (b, c, (e, 1))
    new_triangles[tm] = (d, a, (e, -1))
    new_tri = Triangulation(
        tri.surface, new_triangles, tri.boundary_label_of_edge, tri.base_edge_of
    )
    return new_tri, (e, a[0], b[0], c[0], d[0])


def _canonical_key(tri: Triangulation):
    out = []
    for sides in tri.triangles:
        rots = [tuple(sides[i:]) + tuple(sides[:i]) for i in range(3)]
        out.append(min(rots))
    return tuple(sorted(out))


def _flip_search(tri: Triangulation, v, done, cap: int, what: str):
    """Best-first search from ``tri`` over flips, each replayed on every
    edge_count block of the stacked weights ``v``, for a state where
    ``done(triangulation, weights)``; returns its (flips, triangulation,
    weights).  States pop by (total, push index), and the push index
    names each state's parent.  No flip raises the total, so plateaus
    are crossed but never a rise.  After ``cap`` states it raises
    ComputationError(``what``)."""
    heap = [(sum(v), 0, tri, v)]
    parents = [None]  # push index -> (parent's push index, flip)
    seen = {(_canonical_key(tri), v)}
    explored = 0
    while heap and explored < cap:
        total, i, cur, v = heapq.heappop(heap)
        explored += 1
        if done(cur, v):
            steps = []
            while parents[i] is not None:
                i, step = parents[i]
                steps.append(step)
            return steps[::-1], cur, v
        for e in range(cur.edge_count):
            if cur.is_boundary_edge(e):
                continue
            try:
                nt, step = flip(cur, e)
            except TriangulationError:
                continue
            nv = _flip_blocks(step, v, tri.edge_count)
            if nv is None or sum(nv) > total:
                continue
            key = (_canonical_key(nt), nv)
            if key in seen:
                continue
            seen.add(key)
            parents.append((i, step))
            heapq.heappush(heap, (sum(nv), len(parents) - 1, nt, nv))
    raise ComputationError("%s after %d states (cap %d)"
                           % (what, explored, cap))


def shorten_curve(tri: Triangulation, weights):
    """Flip until the curve crosses exactly two edges once each.

    Returns (flip Encoding F, short triangulation, short weights); F
    transports coordinates from ``tri`` to the short triangulation.
    Best-first search on total weight through flips that never raise it,
    so plateaus are crossed."""
    w0 = tuple(weights)
    if sum(w0) < 2:
        raise CurveError("not an essential closed curve (empty coordinates)")
    steps, short_tri, short_w = _flip_search(
        tri, w0, lambda cur, w: sum(w) == 2, _SEARCH_CAP,
        "could not shorten the curve to an annular position "
        "(is it essential and connected?)")
    return Encoding(steps), short_tri, short_w


def _core_twist(short_tri: Triangulation, short_w) -> Encoding:
    """The positive Dehn twist in the annular position.

    The curve crosses just e1 and e2, and the two triangles it passes
    through form its annular neighbourhood.  In either of them the two
    crossed sides follow each other in the same counterclockwise order;
    flipping the second one and renaming the edges back onto
    ``short_tri`` is the right-handed twist."""
    e1, e2 = (e for e, x in enumerate(short_w) if x == 1)
    (t, k), _ = short_tri.incidences[e1]
    fe = e2 if short_tri.triangles[t][(k + 1) % 3][0] == e2 else e1
    flipped, step = flip(short_tri, fe)
    return _closed(short_tri, flipped, [step], "annular twist")


def _core_half_twist(short_tri: Triangulation, short_w) -> Encoding:
    """The positive half twist in the annular position of a curve around
    two punctures.

    On the pair's side the annulus triangle (x, a, b), a and b the
    crossed edges, has its third side x on a self-folded triangle: the
    once-punctured monogon around the second puncture.  Flipping x, then
    b, then a swaps the two punctures, and renaming the edges back onto
    ``short_tri`` closes the move."""
    crossed = {e for e, x in enumerate(short_w) if x == 1}
    for t, sides in enumerate(short_tri.triangles):
        for k in range(3):
            x, a, b = (sides[(k + j) % 3][0] for j in range(3))
            if {a, b} != crossed or short_tri.is_boundary_edge(x):
                continue
            t2, _ = short_tri.other_incidence(x, t, k)
            if len({e for e, _s in short_tri.triangles[t2]}) == 2:
                cur, steps = short_tri, []
                for e in (x, b, a):
                    cur, step = flip(cur, e)
                    steps.append(step)
                return _closed(short_tri, cur, steps, "half twist")
    raise ComputationError("no once-punctured monogon next to the pair curve")


def _boundary_rotation(tri: Triangulation, label: str) -> Encoding:
    """The positive twist along boundary component ``label``, a single
    edge B with both ends at one marked point v: v turned once around
    the boundary.  Each flip of the side before B in the triangle on B
    turns the fan at v by one corner; one per corner at v outside the
    first triangle, then the renaming onto ``tri``.  A renaming can
    exist sooner (on S_{1,1} after every flip), but those are roots of
    the twist."""
    b = tri.base_edge_of[label]
    ((t, k),) = tri.incidences[b]
    voc = tri.vertex_of_corner
    v = voc[(t, k)]
    turns = len(tri.vertices[v]["corners"]) - sum(
        voc[(t, j)] == v for j in range(3))
    cur, steps = tri, []
    for _ in range(turns):
        ((t, k),) = cur.incidences[b]
        cur, step = flip(cur, cur.triangles[t][(k + 2) % 3][0])
        steps.append(step)
    return _closed(tri, cur, steps, "boundary rotation")


def _closed(short_tri, flipped, steps, what) -> Encoding:
    """The flips followed by the renaming that identifies ``flipped``
    with ``short_tri`` again."""
    perm = derive_relabel_to(flipped, short_tri)
    if perm is None:
        raise ComputationError("%s did not close up" % what)
    return Encoding(steps, perm)


# Which collar rotation sense counts as the positive boundary twist.
# Pinned by the same calibration on the annulus, where the boundary
# twist and the core-curve twist are the same mapping class.
POSITIVE_DRAG_DIRECTION = 1


def derive_relabel_to(src: Triangulation, dst: Triangulation):
    """The unique edge renaming perm (perm[src edge] = dst edge) realising
    a combinatorial isomorphism src -> dst that fixes every boundary edge
    id, or None.  Boundary edges seed the matching and triangle
    adjacency propagates it; on a connected surface this leaves no
    choice, so the map is found or ruled out deterministically."""
    if src.edge_count != dst.edge_count or len(src.triangles) != len(dst.triangles):
        return None
    perm = [None] * src.edge_count
    tmap = {}
    queue = []
    for e in src.boundary_label_of_edge:
        if dst.boundary_label_of_edge.get(e) != src.boundary_label_of_edge[e]:
            return None
        perm[e] = e
        (ts, ks) = src.incidences[e][0]
        (td, kd) = dst.incidences[e][0]
        if ts in tmap and tmap[ts] != (td, (kd - ks) % 3):
            return None
        if ts not in tmap:
            tmap[ts] = (td, (kd - ks) % 3)
            queue.append(ts)
    while queue:
        ts = queue.pop()
        td, rot = tmap[ts]
        for i in range(3):
            es = src.triangles[ts][i][0]
            ed = dst.triangles[td][(i + rot) % 3][0]
            if perm[es] is None:
                perm[es] = ed
            elif perm[es] != ed:
                return None
            if src.is_boundary_edge(es):
                continue
            if dst.is_boundary_edge(ed):
                return None
            ns, ks2 = src.other_incidence(es, ts, i)
            nd, kd2 = dst.other_incidence(ed, td, (i + rot) % 3)
            want = (nd, (kd2 - ks2) % 3)
            if ns in tmap:
                if tmap[ns] != want:
                    return None
            else:
                tmap[ns] = want
                queue.append(ns)
    if len(tmap) != len(src.triangles) or None in perm:
        return None
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm)


def encoding_from_probe_images(tri: Triangulation, probes, images) -> Encoding:
    """Replay script for the mapping class sending each probe arc class
    to the given image, both in coordinates on ``tri``.

    Searches for a flip path carrying the stacked image coordinates back
    down to the stacked probe coordinates, then closes up with the edge
    renaming that identifies the flipped triangulation with ``tri``
    again (unique because boundary edge ids never move).  The composite
    transports w(gamma) to w(phi(gamma)) for every curve and arc, not
    just the probes, provided the probe family fills the surface.
    """
    stacked0 = tuple(t for p in probes for t in p)
    stacked = tuple(t for im in images for t in im)
    target = sum(stacked0)
    m = tri.edge_count

    def done(cur, v):
        if sum(v) != target:
            return False
        perm = derive_relabel_to(cur, tri)
        return perm is not None and all(
            v[j + old] == stacked0[j + new]
            for j in range(0, len(v), m) for old, new in enumerate(perm))

    steps, cur, _ = _flip_search(
        tri, stacked, done, _PROBE_SEARCH_CAP,
        "could not reconstruct a mapping class from the probe images")
    # the flips then the renaming map w(phi(gamma)) back to w(gamma)
    return Encoding(steps, derive_relabel_to(cur, tri)).inverted()


def puncture_order(tri: Triangulation):
    """Puncture vertex ids in the order the punctures were created, which
    is the order the braid generators index them."""
    corners = tri._cache.get("puncture_corner_order")
    if corners is None:
        raise TriangulationError(
            "triangulation carries no puncture ordering (build it with "
            "standard_triangulation)"
        )
    voc = tri.vertex_of_corner
    return [voc[c] for c in corners]


def pair_curve_weights(tri: Triangulation, i: int):
    """Canonical coordinates of the curve enclosing punctures i and i+1
    (1-based): the link of the chain edge joining them, i.e. every other
    edge is weighted by how many of its endpoints lie on the pair."""
    chain = tri._cache.get("puncture_chain_edges")
    if chain is None or not 1 <= i <= len(chain):
        raise TriangulationError("no adjacent puncture pair %d" % i)
    f = chain[i - 1]
    vids = set(puncture_order(tri)[i - 1:i + 1])
    w = [0] * tri.edge_count
    for e in range(tri.edge_count):
        if e == f:
            continue
        tail, head = tri.edge_endpoints(e)
        w[e] = (tail in vids) + (head in vids)
    return tuple(w)


def _letter(tri: Triangulation, key):
    """(conj, core, conj^-1) of the letter ``key``, ("twist", weights),
    ("boundary", label) or ("braid", i): the core move and the flips that
    bring the letter's curve into its annular position (none for a
    boundary rotation).  Compiled once and kept for every power."""
    letters = tri._cache.setdefault("letters", {})
    if key not in letters:
        letters[key] = _compile_letter(tri, *key)
    return letters[key]


def _compile_letter(tri: Triangulation, kind: str, x):
    empty = Encoding(())
    if kind == "braid":
        conj, short_tri, short_w = shorten_curve(tri, pair_curve_weights(tri, x))
        return conj, _core_half_twist(short_tri, short_w), conj.inverted()
    if kind == "boundary":
        if x not in tri.base_edge_of:
            raise CurveError("no boundary component %r" % (x,))
        if len(tri.boundary_cycles[x]) == 1:
            return empty, _boundary_rotation(tri, x), empty
        bp = _curves.boundary_parallel_curve(tri, x).weights
        if not any(bp):  # the bare disc
            return empty, empty, empty
        return _letter(tri, ("twist", bp))
    coords = _curves.NormalCoordinates(tri, x)
    if _curves.is_puncture_parallel(coords):
        return empty, empty, empty
    for lab, cycle in tri.boundary_cycles.items():
        if len(cycle) == 1 and (
                x == _curves.boundary_parallel_curve(tri, lab).weights):
            return _letter(tri, ("boundary", lab))
    comps = _curves.trace_components(coords)
    if len(comps) != 1 or comps[0]["type"] != "closed":
        raise CurveError("twist curves must be single closed curves")
    conj, short_tri, short_w = shorten_curve(tri, x)
    return conj, _core_twist(short_tri, short_w), conj.inverted()


def letter_parts(tri: Triangulation, kind: str, x, k: int) -> tuple:
    """(conj, core^k, conj^-1), whose ``compose`` is the k-th power of the
    letter of ``kind`` "twist", "boundary" or "braid" on x (curve
    weights, label or pair index); () when k = 0.  Twist weights not yet
    compiled are checked against the matching conditions, whatever k."""
    key = (kind, tuple(x) if kind == "twist" else x)
    letter = tri._cache.get("letters", {}).get(key)
    if letter is None and kind == "twist" and not _curves.is_matching(
            _curves.NormalCoordinates(tri, key[1])):
        raise CurveError("curve weights violate the matching conditions")
    if not k:
        return ()
    conj, core, conj_inv = letter or _letter(tri, key)
    return conj, core if k == 1 else core.power(k), conj_inv


def boundary_twist_encoding(tri: Triangulation, label: str,
                            power: int = 1) -> Encoding:
    """Replay script for the ``power``-th power of the positive Dehn
    twist along the curve parallel to boundary component ``label``.

    A component that is one edge is turned once around
    (``_boundary_rotation``); the disc's three-edge component is twisted
    along the curve like any other, or not at all when that curve bounds
    at most one puncture.  Unknown labels raise CurveError."""
    return compose(letter_parts(tri, "boundary", label, power))


def half_twist_encoding(tri: Triangulation, i: int, power: int = 1) -> Encoding:
    """Replay script for the ``power``-th power of the positive half
    twist swapping punctures i and i+1 (the braid generator sigma_i).

    Built like a Dehn twist: shorten the curve enclosing the pair into
    its annular position, make the three-flip move of
    ``_core_half_twist`` there, and conjugate back.  Its square is the
    positive Dehn twist along that curve."""
    return compose(letter_parts(tri, "braid", i, power))


def twist_encoding(tri: Triangulation, curve_weights, power: int = 1) -> Encoding:
    """Replay script for the ``power``-th power of the positive Dehn
    twist along the closed curve with the given weights.

    The curve is shortened into its annular position, where the twist is
    the one-flip move of ``_core_twist``, and the move is conjugated
    back.  Twists along curves bounding a once-punctured disc are
    isotopically trivial on a surface with marked points and yield an
    empty script.
    """
    return compose(letter_parts(tri, "twist", curve_weights, power))
