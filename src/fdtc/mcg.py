"""Mapping classes as words in twist generators, with their exact action
on normal coordinates and the permutation they induce on punctures.

A word is an ordered list of generators applied right to left, like
function composition.  Words are plain data: no simplification beyond
cancelling adjacent mutually-inverse letters, and no attempt to decide
equality in the mapping class group.  The action is compiled through the
flip engine once per word and cached, so applying a long word to huge
coordinates stays cheap.
"""

from __future__ import annotations

from math import lcm

from .errors import CurveError, WordError
from .surface import Record, Triangulation, checked_type
from . import curves
from . import engine


class Generator(Record):
    """One letter of ``kind`` twist (a Dehn twist along a curve),
    boundary (a boundary twist) or braid (a braid half twist), raised to
    an integer power.

    Exactly one of ``curve`` (normal coordinates of an essential simple
    closed curve), ``label`` (boundary component) and ``index`` (1-based
    adjacent puncture pair) is set, according to ``kind``.  ``twist``
    and ``braid`` check that the weights and the index are integers, once
    per letter; words built from the letter do not check them again.
    """

    __slots__ = ("kind", "power", "curve", "label", "index")

    def __init__(self, kind: str, power: int, curve: tuple = None,
                 label: str = None, index: int = None):
        super().__init__(kind, power, curve, label, index)

    @staticmethod
    def twist(curve_weights, power: int = 1) -> "Generator":
        curve = tuple(curve_weights)
        for x in curve:
            checked_type(x, int, "curve weight", WordError)
        return Generator("twist", power, curve=curve)

    @staticmethod
    def boundary(label: str, power: int = 1) -> "Generator":
        return Generator("boundary", power, label=label)

    @staticmethod
    def braid(index: int, power: int = 1) -> "Generator":
        return Generator("braid", power,
                         index=checked_type(index, int, "braid index", WordError))

    def inverted(self) -> "Generator":
        return Generator(self.kind, -self.power, self.curve, self.label, self.index)

    def _same_letter(self, other: "Generator") -> bool:
        return (self.kind, self.curve, self.label, self.index) == (
            other.kind, other.curve, other.label, other.index
        )

    def to_json(self) -> dict:
        if self.kind == "twist":
            return {"curve": list(self.curve), "power": self.power}
        if self.kind == "boundary":
            return {"boundary": self.label, "power": self.power}
        return {"braid": self.index, "power": self.power}


class MappingClassWord:
    """A mapping class on a fixed triangulation, as a generator word.

    The rightmost generator acts first.  ``generators`` is kept in
    application order as written, with adjacent mutually-inverse letters
    cancelled at construction time.
    """

    def __init__(self, tri: Triangulation, generators=()):
        self.tri = tri
        gens = []
        for g in generators:
            self._check(g)
            if g.power == 0:
                continue
            if gens and gens[-1]._same_letter(g):
                merged = gens.pop()
                total = merged.power + g.power
                if total:
                    gens.append(Generator(
                        g.kind, total, g.curve, g.label, g.index
                    ))
                continue
            gens.append(g)
        self.generators = tuple(gens)
        self._encoding = None
        self._orbit = None  # (gamma, n, w^n(gamma)) of the last orbit_arc
        self._splits = {}  # label -> boundary_split(label)

    # -- construction checks ----------------------------------------------

    def _check(self, g: Generator):
        tri = self.tri
        checked_type(g.power, int, "power", WordError)
        if g.kind == "twist":
            if g.curve is None or len(g.curve) != tri.edge_count:
                raise WordError("twist curve does not live on this triangulation")
        elif g.kind == "boundary":
            if not isinstance(g.label, str) or g.label not in tri.base_edge_of:
                raise WordError("unknown boundary label %r" % (g.label,))
        elif g.kind == "braid":
            n = tri.surface.puncture_count
            if n < 2:
                raise WordError("braid generators need at least 2 punctures")
            if not 1 <= g.index <= n - 1:
                raise WordError("braid index %r out of range" % (g.index,))
        else:
            raise WordError("unknown generator kind %r" % (g.kind,))

    # -- group operations --------------------------------------------------

    def compose(self, other: "MappingClassWord") -> "MappingClassWord":
        """self after other (other acts first)."""
        if self.tri is not other.tri:
            raise WordError("words live on different triangulations")
        return MappingClassWord(self.tri, self.generators + other.generators)

    def invert(self) -> "MappingClassWord":
        return MappingClassWord(
            self.tri, [g.inverted() for g in reversed(self.generators)]
        )

    def power(self, k: int) -> "MappingClassWord":
        if k == 0:
            return MappingClassWord(self.tri)
        base = self if k > 0 else self.invert()
        gens = base.generators * abs(k)
        return MappingClassWord(self.tri, gens)

    def boundary_split(self, label: str):
        """(rest, k): the word without its boundary letters of ``label``
        and the sum of their powers, kept per label.  The boundary twist
        is central, so the word is T_label^k rest.  Letters the removal
        brings together still cancel; other components' letters stay."""
        if label not in self._splits:
            rest, k = [], 0
            for g in self.generators:
                if g.kind == "boundary" and g.label == label:
                    k += g.power
                else:
                    rest.append(g)
            # None: the word is its own rest, kept out of a reference
            # cycle with its own cache
            self._splits[label] = (
                MappingClassWord(self.tri, rest)
                if len(rest) < len(self.generators) else None, k)
        rest, k = self._splits[label]
        return self if rest is None else rest, k

    def length(self) -> int:
        """The sum of the letters' |power|, of any size; ``len()`` could
        not return one past sys.maxsize."""
        return sum(abs(g.power) for g in self.generators)

    def is_identity_word(self) -> bool:
        return not self.generators

    # -- the action ---------------------------------------------------------

    def encoding(self) -> engine.Encoding:
        """The parts of every letter's power composed in one pass."""
        if self._encoding is None:
            parts = []
            for g in reversed(self.generators):
                x = g.curve if g.kind == "twist" else (
                    g.label if g.kind == "boundary" else g.index)
                parts += engine.letter_parts(self.tri, g.kind, x, g.power)
            self._encoding = engine.compose(parts)
        return self._encoding

    def _check_coords(self, x: curves.NormalCoordinates):
        if x.tri is not self.tri:
            raise CurveError("coordinates live on a different triangulation")
        if not curves.is_matching(x):
            raise CurveError("coordinates violate the matching conditions")

    def apply(self, x: curves.NormalCoordinates) -> curves.NormalCoordinates:
        self._check_coords(x)
        return curves.NormalCoordinates(self.tri, self.encoding().forward(x.weights))

    def apply_arc(self, g: curves.ArcClass) -> curves.ArcClass:
        """Image of a boundary-based arc.  The mapping class fixes the
        boundary pointwise, so the start slot is preserved."""
        img = self.apply(g.coords)
        return curves.ArcClass(img, g.start)

    def orbit_arc(self, gamma: curves.ArcClass, N: int) -> curves.ArcClass:
        """w^N(gamma), resumed from the kept point w^n(gamma) when n <= N,
        else walked from gamma; the new point replaces the kept one.
        gamma is checked once, as ``apply`` checks it; the replays need
        no check, since flips keep the matching conditions."""
        if N < 0:
            raise WordError("orbit power must be non-negative, not %d" % N)
        kept = self._orbit
        n, arc = kept[1:] if kept and kept[0] == gamma and kept[1] <= N \
            else (0, gamma)
        if N > n:
            if not n:
                self._check_coords(gamma.coords)
            forward = self.encoding().forward
            weights = arc.coords.weights
            for _ in range(N - n):
                weights = forward(weights)
            arc = curves.ArcClass(curves.NormalCoordinates(self.tri, weights),
                                  gamma.start)
        self._orbit = (gamma, N, arc)
        return arc

    # -- punctures ----------------------------------------------------------

    def puncture_permutation(self) -> tuple:
        """perm[i] = image of puncture i (0-based creation order)."""
        n = self.tri.surface.puncture_count
        perm = list(range(n))
        for g in reversed(self.generators):
            if g.kind == "braid" and g.power % 2:
                j = g.index - 1
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
        return tuple(perm)

    def to_json(self) -> list:
        return [g.to_json() for g in self.generators]

    @staticmethod
    def from_json(tri: Triangulation, data, named_curves=None) -> "MappingClassWord":
        """The word of a JSON list of letter records: the one reader of
        word records.  Raises WordError on anything malformed."""
        gens = []
        for item in checked_type(data, list, "word", WordError):
            checked_type(item, dict, "generator record", WordError)
            power = item.get("power", 1)
            if "curve" in item:
                # checked_curve has checked the weights
                gens.append(Generator("twist", power,
                                      curve=checked_curve(tri, item["curve"])))
            elif "twist" in item:
                table = named_curves or {}
                name = item["twist"]
                if not isinstance(name, str) or name not in table:
                    raise WordError("unknown named curve %r" % (name,))
                gens.append(Generator.twist(table[name], power))
            elif "boundary" in item:
                gens.append(Generator.boundary(item["boundary"], power))
            elif "braid" in item:
                gens.append(Generator.braid(item["braid"], power))
            else:
                raise WordError("unrecognised generator record %r" % (item,))
        return MappingClassWord(tri, gens)


def checked_curve(tri: Triangulation, weights) -> tuple:
    """The weights of a curve read from a problem file, after the checks
    that named and inline curves share: a list of non-negative integers,
    one per edge of ``tri``, satisfying the matching conditions."""
    checked_type(weights, list, "curve", WordError)
    for x in weights:
        if checked_type(x, int, "curve weight", WordError) < 0:
            raise WordError("curve weight %d is negative" % (x,))
    if len(weights) != tri.edge_count:
        raise WordError("curve has %d weights, expected %d"
                        % (len(weights), tri.edge_count))
    if not curves.is_matching(curves.NormalCoordinates(tri, weights)):
        raise WordError("curve %r violates the matching conditions"
                        % (list(weights),))
    return tuple(weights)


def identity_word(tri: Triangulation) -> MappingClassWord:
    return MappingClassWord(tri)


def puncture_permutation_order(w: MappingClassWord) -> int:
    perm = w.puncture_permutation()
    if not perm:
        return 1
    order = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        order = lcm(order, length)
    return order


def acts_identically(w: MappingClassWord, probe_bound: int):
    """Semi-decision for triviality: apply the word to every essential
    arc up to the weight bound on every boundary component.

    Returns (True, None) when all probes are fixed — yes on probes, not
    a proof — or (False, witness_arc) with the first moved arc."""
    if probe_bound < 1:
        raise WordError("probe bound must be at least 1")
    enc = w.encoding()
    for lab in sorted(w.tri.base_edge_of):
        for g in curves.enumerate_arcs(w.tri, lab, probe_bound):
            if enc.forward(g.coords.weights) != g.coords.weights:
                return (False, g)
    return (True, None)
