"""Exception hierarchy shared by all modules."""


class FdtcError(Exception):
    """Base class for all errors raised by this package."""


class TriangulationError(FdtcError):
    """A triangulation violates a structural invariant."""


class CurveError(FdtcError):
    """A curve/arc argument is unusable (wrong triangulation, not
    connected, not essential, ...)."""


class WordError(FdtcError):
    """A mapping class word is malformed or lives on the wrong surface."""


class ComputationError(FdtcError):
    """An algorithm could not complete (search space exhausted,
    retry budget spent, ...)."""


class FoliationError(FdtcError):
    """A singular-foliation graph is malformed or a stated hypothesis
    (essentiality flag, sign condition, ...) is missing."""


class InconsistentDataError(FdtcError):
    """Caller-supplied data is internally contradictory (e.g. foliation
    bounds with empty intersection)."""
