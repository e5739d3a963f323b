"""Fractional Dehn twist coefficients, exactly.

The computation brackets c(phi, C) between consecutive boundary-twist
powers: for the probe arc gamma there is a unique integer M with
T_C^M(gamma) >= phi^N(gamma) > T_C^{M+1}(gamma) in the left-to-right
order of arcs at the base point, giving c in [M/N, (M+1)/N].  With
N > D(D-1), where D bounds the possible denominators on the surface,
that window contains exactly one admissible rational, which is the
coefficient; equality at the bracket end pins the point value M/N
directly.  Everything is integer/rational arithmetic on normal
coordinates, so results are exact.

The twist T_C along the boundary is central among the mapping classes
that fix the boundary pointwise: f T_C f^-1 = T_f(C) = T_C.  So a word
splits as phi = T_C^k rest (``MappingClassWord.boundary_split``) and
phi^N = T_C^(kN) rest^N.  T_C^(-kN) keeps the left-to-right order at the
base point, so M(T_C^k rest, N) = M(rest, N) + kN and
c(T_C^k rest, C) = c(rest, C) + k: the Key Lemma brackets rest and
shifts the bracket, and no T_C letter is replayed, whatever its power.
Letters of the other components stay in rest: they move the far end of
gamma.

T_C^m(gamma) is the m-th replay of the compiled boundary letter
(``engine.boundary_twist_encoding``) on the weights of gamma; the twist
fixes the boundary pointwise, so gamma keeps its start slot.  Once one
replay adds one lap per endpoint of gamma on C, every later replay adds
the same, so T_C^m(gamma) = D + (|m| - j) k c_C with D the j-th power,
k the number of endpoints on C and c_C the boundary-parallel curve.  The
search for M compares at m = 0 for the sign of M, reads a guess for |M|
off the collar laps that rest^N(gamma) makes before leaving the collar
(``curves.collar_laps``), less the lap that T_C^(+-1)(gamma) may already
make, and brackets M by a gallop from the guess and a bisection: about
three comparisons per interval.  rest^N(gamma) resumes from the furthest
point of the orbit of gamma that rest keeps
(``MappingClassWord.orbit_arc``): a sweep to N_max applies rest N_max
times.

Both T_C^m(gamma) and rest^N(gamma) spiral around the collar of C about
|M| times, M being that of rest.  The comparisons and the lap count skip
the whole laps of those spirals in closed form (``curves._lap_map``), so
each costs about one lap plus the walk outside the spirals, not |M|
laps, and a sweep to N_max is no longer quadratic in N_max.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ComputationError, CurveError, InconsistentDataError, WordError
from .surface import Record, denominator_bound
from . import curves, engine
from .engine import POSITIVE_DRAG_DIRECTION
from .mcg import MappingClassWord, puncture_permutation_order

_PROBE_BOUND = 4


class RationalInterval(Record):
    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: Fraction, hi: Fraction, lo_closed: bool = True,
                 hi_closed: bool = True):
        if lo > hi:
            raise InconsistentDataError("interval endpoints out of order")
        if lo == hi and not (lo_closed and hi_closed):
            raise InconsistentDataError("degenerate interval must be closed")
        super().__init__(lo, hi, lo_closed, hi_closed)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = Fraction(x)
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def scaled(self, s) -> "RationalInterval":
        s = Fraction(s)
        if s < 0:
            return RationalInterval(
                self.hi * s, self.lo * s, self.hi_closed, self.lo_closed
            )
        return RationalInterval(
            self.lo * s, self.hi * s, self.lo_closed, self.hi_closed
        )

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


class FDTCResult(Record):
    """Outcome of an FDTC computation: an exact value and/or a bracketing
    interval, with the route that produced it (ExactTheorem or
    PeriodicityCorollary) and the parameters used."""

    __slots__ = ("value", "interval", "provenance", "N", "M", "D")

    def __init__(self, value: Fraction | None,
                 interval: RationalInterval | None, provenance: str,
                 N: int | None = None, M: int | None = None,
                 D: int | None = None):
        if value is not None and interval is not None:
            if not interval.contains(value):
                raise InconsistentDataError("value lies outside its interval")
        super().__init__(value, interval, provenance, N, M, D)

    def to_json(self) -> dict:
        return {
            "value": None if self.value is None else str(self.value),
            "interval": None if self.interval is None else self.interval.to_json(),
            "provenance": self.provenance,
            "N": self.N,
            "D": self.D,
        }


# ---------------------------------------------------------------------------
# Key Lemma bracketing


def _drag_chain(gamma: curves.ArcClass, C: str, sign: int):
    """(chain, lap, offset): chain[j] is the weights of T_C^(sign*j)(gamma),
    the compiled boundary letter replayed j times, continued until one
    application adds exactly ``lap`` = k copies of the boundary-parallel
    curve, k being the number of endpoints of gamma on C.  From there on
    every application adds one whole lap per endpoint with nothing to
    cancel, so the powers are affine.  For a probe arc that does not
    itself wind around C the chain is (gamma, D, D + lap).  ``offset`` is
    the number of whole collar laps of T_C^sign(gamma), 0 or 1 by where
    gamma leaves the collar (``curves.collar_laps``): T_C^(sign*j)(gamma)
    winds j - 1 + offset laps for j >= 1."""
    tri = gamma.tri
    key = ("drag_chain", C, sign, gamma.coords.weights, gamma.start)
    if key not in tri._cache:
        k = gamma.coords.ends_on(C)
        c_C = curves.boundary_parallel_curve(tri, C).weights
        lap = tuple(k * x for x in c_C)
        forward = engine.boundary_twist_encoding(tri, C, sign).forward
        chain = [gamma.coords.weights, forward(gamma.coords.weights)]
        # a winding arc unwinds by at most one lap per application
        for _ in range(gamma.coords.total_weight + 2):
            chain.append(forward(chain[-1]))
            if tuple(b - a for a, b in zip(chain[-2], chain[-1])) == lap:
                break
        else:
            raise ComputationError("twists of the probe arc did not settle "
                                   "into whole laps")
        once = curves.ArcClass(curves.NormalCoordinates(tri, chain[1]),
                               gamma.start)
        offset = curves.collar_laps(once, sign * POSITIVE_DRAG_DIRECTION)
        tri._cache[key] = (tuple(chain), lap, offset)
    return tri._cache[key]


def _boundary_power_arc(gamma: curves.ArcClass, C: str,
                        m: int) -> curves.ArcClass:
    """T_C^m(gamma) in closed form: read off the chain of boundary
    twist powers and continued affinely by whole laps.  The twist fixes
    the boundary pointwise, so the start slot is gamma's."""
    if m == 0:
        return gamma
    chain, lap, _offset = _drag_chain(gamma, C, 1 if m > 0 else -1)
    extra = abs(m) - len(chain) + 1
    weights = chain[abs(m)] if extra <= 0 else \
        [a + extra * b for a, b in zip(chain[-1], lap)]
    return curves.ArcClass(curves.NormalCoordinates(gamma.tri, weights),
                           gamma.start)


def key_lemma_interval(w: MappingClassWord, C: str, gamma: curves.ArcClass,
                       N: int) -> RationalInterval:
    """Bracket c(w, C) in [M/N, (M+1)/N] from the action of w^N on one
    essential probe arc; equality at the lower bracket collapses to the
    exact point M/N.

    T_C is central, so w = T_C^k rest (``MappingClassWord.boundary_split``)
    and M(w, N) = M(rest, N) + kN: the search brackets rest, whose orbit
    point rest^N(gamma) resumes from the one rest keeps, and shifts the
    bracket by kN.  M(rest, N) is the largest m with
    T_C^m(gamma) >= rest^N(gamma), searched in [-half, half].  The
    comparison at m = 0 gives its sign; rest^N(gamma) then follows the
    collar spiral of that sign for about |M| laps, which one walk reads
    off as the first guess.  A gallop from the guess finds a bracket and a
    bisection closes it.  Every bracket end is a comparison actually
    made, and the relation is monotone in m, so the guess only decides
    how many comparisons are made.  A range end is compared only when the
    search reaches it.  Each comparison, and the lap count, skips the
    whole collar laps the arcs share, so its cost does not grow with
    |M|."""
    if N < 1:
        raise ComputationError("N must be a positive integer")
    tri = w.tri
    if gamma.tri is not tri:
        raise CurveError("probe arc lives on a different triangulation")
    if gamma.start[0] != C:
        raise CurveError("probe arc must start on %r" % (C,))
    if not curves.is_essential(gamma):
        raise CurveError("Key Lemma requires essential arc")
    rest, k = w.boundary_split(C)
    phi_arc = rest.orbit_arc(gamma, N)
    half = 2 * N * max(rest.length(), 1) + 2
    # T_C^lo(gamma) >= phi_arc > T_C^hi(gamma); an end not compared yet
    # sits just outside the range
    lo, hi = -half - 1, half + 1
    m, up, step = 0, None, 1
    guessed = galloping = False
    while hi - lo > 1:
        rel = curves.compare_at_base(_boundary_power_arc(gamma, C, m),
                                     phi_arc, C)
        if rel is curves.Ordering.EQUAL:
            return _point(Fraction(m + k * N, N))
        went_up = rel is curves.Ordering.RIGHT_OF
        if went_up:
            if m == half:
                raise ComputationError(
                    "Key Lemma search range too small (high end)")
            lo = m
        else:
            if m == -half:
                raise ComputationError(
                    "Key Lemma search range too small (low end)")
            hi = m
        if not guessed:
            # m = 0 gave the sign s of M.  T_C^(s j)(gamma) winds
            # j - 1 + offset laps (``_drag_chain``), so w^N(gamma) winds
            # M - 1 + offset or M + offset laps when M >= 0, and
            # -M - 2 + offset or -M - 1 + offset laps when M < 0: guess
            # the larger candidate
            sign = 1 if went_up else -1
            offset = _drag_chain(gamma, C, sign)[2]
            laps = curves.collar_laps(phi_arc, sign * POSITIVE_DRAG_DIRECTION)
            m = sign * (laps + 1 - offset)
            guessed = galloping = True
        elif galloping and up in (None, went_up):
            # gallop away from the guess until the relation turns
            up = went_up
            m += step if went_up else -step
            step *= 2
        else:
            galloping = False
            m = (lo + hi) // 2
        m = min(max(m, lo + 1), hi - 1)
    return RationalInterval(Fraction(lo + k * N, N), Fraction(hi + k * N, N),
                            True, True)


def _point(x: Fraction) -> RationalInterval:
    return RationalInterval(x, x, True, True)


# ---------------------------------------------------------------------------
# bounded-denominator recovery, by its definition: each q <= D in turn


def bounded_denominator_candidates(interval: RationalInterval, D: int) -> list:
    """All reduced rationals with denominator <= D in the interval,
    sorted increasingly: for each q <= D, the numerators p from
    ceil(lo q) to floor(hi q), one step in at an open end that p/q hits
    exactly."""
    if D < 1:
        raise ComputationError("denominator bound must be positive")
    lo, hi = interval.lo, interval.hi
    found = set()
    for q in range(1, D + 1):
        first, r = divmod(lo.numerator * q, lo.denominator)
        first += bool(r) or not interval.lo_closed
        last, r = divmod(hi.numerator * q, hi.denominator)
        last -= not (r or interval.hi_closed)
        found.update(Fraction(p, q) for p in range(first, last + 1))
    return sorted(found)


def unique_bounded_denominator(interval: RationalInterval, D: int):
    """The unique rational with denominator <= D in the interval.

    Returns (Fraction, None) on success, (None, report) otherwise, where
    the report lists all candidates ("ambiguous") or none ("empty")."""
    cands = bounded_denominator_candidates(interval, D)
    if len(cands) == 1:
        return cands[0], None
    if not cands:
        return None, {"status": "empty", "candidates": []}
    return None, {"status": "ambiguous", "candidates": cands}


# ---------------------------------------------------------------------------
# the exact computation


def _first_probe_arc(tri, C: str):
    """The lightest essential arc based on C, found once per triangulation."""
    key = ("probe_arc", C)
    if key not in tri._cache:
        for b in range(_PROBE_BOUND, _PROBE_BOUND + 8, 2):
            arcs = curves.enumerate_arcs(tri, C, b)
            if arcs:
                tri._cache[key] = arcs[0]
                break
        else:
            raise ComputationError("no essential probe arc found on %r" % (C,))
    return tri._cache[key]


def key_lemma_power(D: int) -> int:
    """N = D(D-1)+1: two distinct rationals of denominator at most D lie
    at least 1/(D(D-1)) apart, more than the width 1/N of a bracket, so
    the closed window holds at most one of them."""
    return D * (D - 1) + 1


def _without_essential_arc(tri, C: str) -> bool:
    """Whether the surface of tri is a disc with at most one puncture,
    after checking that C is one of its boundary labels.  Such a disc has
    no essential arc, and its mapping class group is trivial (Alexander
    lemma), so c(w, C) = 0 for every word w."""
    if C not in tri.base_edge_of:
        raise WordError("unknown boundary label %r" % (C,))
    spec = tri.surface
    return spec.genus == 0 and spec.boundary_count == 1 \
        and spec.puncture_count <= 1


def fdtc_exact(w: MappingClassWord, C: str) -> FDTCResult:
    """c(w, C) as an exact rational.

    Runs the bracketing once, at N = key_lemma_power(D).  On the annulus
    D = 1, so N = 1 and the bracket is the integer twist power itself."""
    tri = w.tri
    if _without_essential_arc(tri, C):
        return FDTCResult(Fraction(0), _point(Fraction(0)),
                          "PeriodicityCorollary", N=1, M=0, D=1)
    spec = tri.surface
    if spec.puncture_count:
        perm = w.puncture_permutation()
        if perm != tuple(range(len(perm))):
            raise WordError(
                "word permutes punctures; use braid_fdtc, which normalizes "
                "by the permutation order"
            )
    D = denominator_bound(spec.fold_punctures()).value
    N = key_lemma_power(D)
    interval = key_lemma_interval(w, C, _first_probe_arc(tri, C), N)
    M = int(interval.lo * N)
    if interval.is_point:
        return FDTCResult(interval.lo, interval, "PeriodicityCorollary",
                          N=N, M=M, D=D)
    val, report = unique_bounded_denominator(interval, D)
    if val is None:
        raise InconsistentDataError(
            "%s admissible rational in the bracketing interval"
            % ("no" if report["status"] == "empty" else "more than one"))
    return FDTCResult(val, interval, "ExactTheorem", N=N, M=M, D=D)


def braid_fdtc(w: MappingClassWord, C: str) -> FDTCResult:
    """FDTC of the closed braid represented by w: the coefficient of the
    smallest pure power, divided by that power."""
    tri = w.tri
    if tri.surface.puncture_count < 1:
        raise WordError("braid_fdtc needs a punctured surface")
    if C not in tri.base_edge_of:
        raise WordError("%r is not a boundary label" % (C,))
    m = puncture_permutation_order(w)
    res = fdtc_exact(w.power(m), C)
    return FDTCResult(res.value / m, res.interval.scaled(Fraction(1, m)),
                      res.provenance, N=res.N, M=res.M, D=res.D)


def translation_estimate(w: MappingClassWord, C: str,
                         N_max: int) -> list[RationalInterval]:
    """The bracketing intervals for N = 1..N_max with a fixed probe arc;
    each contains c(w, C) and has width exactly 1/N (or is the exact
    point), converging to the coefficient as a translation number."""
    if N_max < 1:
        raise ComputationError("N_max must be at least 1")
    if _without_essential_arc(w.tri, C):
        return [_point(Fraction(0))] * N_max
    gamma = _first_probe_arc(w.tri, C)
    return [key_lemma_interval(w, C, gamma, n) for n in range(1, N_max + 1)]


def right_veering_test(w: MappingClassWord, C: str, weight_bound: int,
                       nt_type: str = None) -> dict:
    """Right-veering check combining the coefficient sign with a direct
    probe-arc search.

    c < 0 certifies non-right-veering outright; c > 0 plus a caller
    assertion of pseudo-Anosov type certifies right-veering.  Otherwise
    the essential arcs up to the weight bound are searched for one moved
    strictly to the left, which is a genuine witness; finding none is
    only 'no witness up to the bound'."""
    if weight_bound < 1:
        raise ComputationError("weight bound must be at least 1")
    res = fdtc_exact(w, C)
    if res.value < 0:
        return {"verdict": "non-right-veering", "reason": "fdtc-negative",
                "fdtc": res, "witness": None}
    if res.value > 0 and nt_type == "pseudoAnosov":
        return {"verdict": "right-veering", "reason": "fdtc-positive-pA",
                "fdtc": res, "witness": None}
    enc = w.encoding()
    for gamma in curves.enumerate_arcs(w.tri, C, weight_bound):
        img = curves.ArcClass(
            curves.NormalCoordinates(w.tri, enc.forward(gamma.coords.weights)),
            gamma.start,
        )
        if curves.compare_at_base(gamma, img, C) is curves.Ordering.LEFT_OF:
            return {"verdict": "non-right-veering", "reason": "witness-arc",
                    "fdtc": res, "witness": gamma}
    return {"verdict": "no-witness-up-to-bound", "reason": None,
            "fdtc": res, "witness": None}


def quasimorphism_audit(w1: MappingClassWord, w2: MappingClassWord,
                        C: str) -> dict:
    """Defect and conjugation-invariance audit of the coefficient as a
    homogeneous quasimorphism."""
    if w1.tri is not w2.tri:
        raise WordError("words live on different triangulations")
    c1 = fdtc_exact(w1, C)
    c2 = fdtc_exact(w2, C)
    c12 = fdtc_exact(w1.compose(w2), C)
    defect = abs(c12.value - c1.value - c2.value)
    conj = fdtc_exact(w2.compose(w1).compose(w2.invert()), C)
    return {
        "c1": c1.value,
        "c2": c2.value,
        "c12": c12.value,
        "defect": defect,
        "defect_ok": defect <= 1,
        "conjugation_ok": conj.value == c1.value,
    }
