"""Decision criteria turning fractional twisting coefficients into
statements about the associated 3-manifold: irreducibility,
atoroidality, geometric type, Seifert-genus bounds for closed braids,
and an obstruction to being a stabilized open book.

Every criterion here is one-sided.  A verdict either fires with the
hypotheses that were checked, or comes back Inconclusive naming the
hypothesis that failed; no operation ever asserts the negative.  All
comparisons are exact rational comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .errors import InconsistentDataError, WordError
from .foliation import BoundReport, ceiling_average_infimum
from .surface import Record

MODES = ("monodromy", "braid")
NT_TYPES = ("periodic", "reducible", "pseudoAnosov", "unknown")


class CoefficientAssignment(Record):
    """Twisting coefficients per boundary component, plus how they were
    computed: for the monodromy itself or for a braid complement."""

    __slots__ = ("coefficients", "mode", "connected_boundary")

    def __init__(self, coefficients: dict, mode: str = "monodromy",
                 connected_boundary: bool = False):
        if not coefficients:
            raise InconsistentDataError("empty coefficient assignment")
        if mode not in MODES:
            raise InconsistentDataError("unknown mode %r" % (mode,))
        if connected_boundary and len(coefficients) != 1:
            raise InconsistentDataError(
                "connected boundary with %d components" % len(coefficients))
        super().__init__(
            {str(k): Fraction(v) for (k, v) in coefficients.items()},
            mode, connected_boundary)

    def values(self):
        return list(self.coefficients.values())

    def all_abs_above(self, bound) -> bool:
        return all(abs(c) > bound for c in self.values())


class Verdict(Record):
    """Outcome of one criterion: the conclusion, the criterion tag that
    produced it, and an echo of every hypothesis that was assumed or
    found to fail."""

    __slots__ = ("conclusion", "criterion", "hypotheses")

    def __init__(self, conclusion: str, criterion: str,
                 hypotheses: tuple = ()):
        super().__init__(conclusion, criterion, hypotheses)

    @property
    def inconclusive(self) -> bool:
        return self.conclusion == "Inconclusive"

    def to_json(self) -> dict:
        return {"conclusion": self.conclusion, "criterion": self.criterion,
                "hypotheses": list(self.hypotheses)}


def _mode_note(a: CoefficientAssignment) -> list:
    if a.mode == "braid":
        return ["braid mode: coefficients are for the braid complement and "
                "the conclusion applies to the complement of the braid"]
    return []


# -- closed incompressible surfaces ------------------------------------------


def closed_surface_fdtc_bound(genus: int, n_half: int,
                              connected_boundary: bool) -> BoundReport:
    """Upper bound on |c| forced by a closed incompressible genus-g
    surface meeting the binding in 2*n_half points.  Without connected
    boundary the bound holds for *some* boundary component."""
    if n_half < 1:
        raise InconsistentDataError("surface must meet the binding "
                                    "(n_half >= 1)")
    if genus < 0:
        raise InconsistentDataError("negative genus")
    n = n_half
    if not connected_boundary:
        if genus == 0:
            upper = Fraction(3)
        else:
            upper = Fraction(4 + (4 * genus - 4) // n)
        return BoundReport(
            Fraction(0), upper, "closed-surface twisting cap (some "
            "boundary component)",
            ("closed incompressible genus-%d surface meeting the binding "
             "in %d points" % (genus, 2 * n),))
    simple = Fraction(1) if genus == 0 else Fraction(genus)
    refined = ceiling_average_infimum(genus - 1 + n, n)
    upper = min(simple, refined)
    return BoundReport(
        Fraction(0), upper, "closed-surface twisting cap (connected "
        "boundary)",
        ("closed incompressible genus-%d surface meeting the binding in "
         "%d points" % (genus, 2 * n),
         "boundary of the page is connected"))


# -- verdicts ----------------------------------------------------------------


def irreducibility_verdict(a: CoefficientAssignment) -> Verdict:
    """The manifold (or braid complement) is irreducible when every
    coefficient exceeds 3 in absolute value, or the boundary is
    connected and the coefficient exceeds 1."""
    notes = _mode_note(a)
    if a.connected_boundary and a.all_abs_above(1):
        return Verdict("Irreducible", "connected-boundary irreducibility",
                       tuple(notes + ["boundary connected", "|c| > 1"]))
    if a.all_abs_above(3):
        return Verdict("Irreducible", "all-components irreducibility",
                       tuple(notes + ["|c| > 3 on every boundary component"]))
    return Verdict("Inconclusive", "irreducibility",
                   tuple(notes + ["need |c| > 3 on every component, or "
                                  "connected boundary with |c| > 1"]))


def atoroidality_verdict(a: CoefficientAssignment, nt_type: str,
                         tight: bool = False) -> Verdict:
    """Atoroidality from large twisting, for monodromies of irreducible
    (periodic or pseudo-Anosov) type; a second criterion trades the
    size-4 threshold for tightness and one-sided coefficients > 2."""
    if nt_type not in NT_TYPES:
        raise InconsistentDataError("unknown type %r" % (nt_type,))
    notes = _mode_note(a)
    irreducible_type = nt_type in ("periodic", "pseudoAnosov")
    if irreducible_type:
        typed = notes + ["monodromy type %s (caller-asserted)" % nt_type]
        if a.connected_boundary and a.all_abs_above(1):
            return Verdict(
                "IrreducibleAndAtoroidal", "connected-boundary atoroidality",
                tuple(typed + ["boundary connected", "|c| > 1"]))
        if a.all_abs_above(4):
            return Verdict(
                "IrreducibleAndAtoroidal", "all-components atoroidality",
                tuple(typed + ["|c| > 4 on every boundary component"]))
        # one-sided: literally c > 2, not |c| > 2
        if tight and all(c > 2 for c in a.values()):
            return Verdict(
                "Atoroidal", "tight atoroidality",
                tuple(typed + ["supported contact structure tight "
                               "(caller-asserted)",
                               "c > 2 on every boundary component"]))
    return Verdict(
        "Inconclusive", "atoroidality",
        tuple(notes + ["need irreducible (periodic or pseudo-Anosov) type "
                       "plus |c| > 4 everywhere, connected boundary with "
                       "|c| > 1, or tightness with c > 2 everywhere"]))


def geometry_verdict(a: CoefficientAssignment, nt_type: str) -> Verdict:
    """Geometric type of the manifold (or braid complement) from the
    monodromy's type, valid once the twisting hypothesis holds; a
    separate criterion handles periodic monodromies with nonzero
    coefficients even when the hypothesis fails."""
    if nt_type not in NT_TYPES:
        raise InconsistentDataError("unknown type %r" % (nt_type,))
    notes = _mode_note(a)
    hypothesis = ((a.connected_boundary and a.all_abs_above(1))
                  or a.all_abs_above(4))
    if hypothesis and nt_type != "unknown":
        conclusion = {"reducible": "Toroidal",
                      "pseudoAnosov": "Hyperbolic",
                      "periodic": "SeifertFibered"}[nt_type]
        hyp = "boundary connected and |c| > 1" \
            if a.connected_boundary and a.all_abs_above(1) \
            else "|c| > 4 on every boundary component"
        return Verdict(
            conclusion, "geometry trichotomy",
            tuple(notes + [hyp,
                           "monodromy type %s (caller-asserted)" % nt_type]))
    if nt_type == "periodic" and all(c != 0 for c in a.values()):
        return Verdict(
            "SeifertFibered", "periodic monodromy with nonzero twisting",
            tuple(notes + ["monodromy periodic (caller-asserted)",
                           "c != 0 on every boundary component"]))
    return Verdict(
        "Inconclusive", "geometry",
        tuple(notes + ["need known type plus connected boundary with "
                       "|c| > 1 or |c| > 4 everywhere (or periodic type "
                       "with all c != 0)"]))


def stabilization_obstruction(a: CoefficientAssignment) -> Verdict:
    """A stabilized open book has a component with |c| <= 1, and |c| <=
    1/2 when the boundary is connected; large twisting therefore
    obstructs being a stabilization."""
    if a.mode != "monodromy":
        raise WordError("stabilization is a property of the open book "
                        "monodromy, not of a braid")
    if a.connected_boundary and a.all_abs_above(Fraction(1, 2)):
        return Verdict("NotAStabilization",
                       "connected-boundary stabilization cap",
                       ("boundary connected", "|c| > 1/2"))
    if a.all_abs_above(1):
        return Verdict("NotAStabilization", "stabilization cap",
                       ("|c| > 1 on every boundary component",))
    return Verdict("Inconclusive", "stabilization",
                   ("need |c| > 1 on every component, or connected "
                    "boundary with |c| > 1/2",))


# -- Seifert genus of closed braids ------------------------------------------


def braid_genus_bounds(chi_F: int, k_intersections: int = None,
                       braid_index: int = None,
                       connected_boundary: bool = False) -> BoundReport:
    """Upper bound on |c| for some boundary component forced by a
    maximal-Euler-characteristic Seifert surface of a null-homologous
    closed braid; with connected boundary and chi <= 0 the sharper
    (n - chi)/n cap applies to the single component."""
    bounds = []
    hyps = ["Seifert surface of maximal Euler characteristic %d" % chi_F]
    if chi_F > 0:
        bounds.append((Fraction(3), "positive-chi cap"))
    if chi_F < 0:
        if k_intersections is None or k_intersections < 1:
            raise InconsistentDataError(
                "chi < 0 needs the number of binding intersections (k >= 1)")
        k = k_intersections
        cap = min(Fraction((-4 * chi_F) // k + 4), Fraction(-chi_F + k))
        bounds.append((cap, "negative-chi cap"))
        hyps.append("surface meets the binding in %d points" % k)
    if connected_boundary and chi_F <= 0:
        if braid_index is None or braid_index < 1:
            raise InconsistentDataError(
                "connected-boundary cap needs the braid index")
        n = braid_index
        bounds.append((Fraction(n - chi_F, n), "connected-boundary cap"))
        hyps.append("boundary of the page is connected; braid index %d" % n)
    if not bounds:
        raise InconsistentDataError(
            "no criterion applies (chi = 0 needs connected boundary and "
            "the braid index)")
    upper, tag = min(bounds)
    return BoundReport(Fraction(0), upper,
                       "braid genus twisting cap (%s)" % tag, tuple(hyps))


def genus_lower_bound(min_abs_c) -> int:
    """Lower bound on the Seifert genus of a knot braid from the
    smallest |c| over the boundary components."""
    return max(0, ceil(Fraction(Fraction(min_abs_c) - 3, 2)))
