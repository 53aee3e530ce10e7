"""Exception types raised by the numeric layers.

Every failure mode that a caller may want to catch gets its own class; all
inherit from E2CritError so `except E2CritError` catches any numeric failure
without masking programming errors.
"""


class E2CritError(Exception):
    """Base class for all numeric failures in this package."""


class TruncationFailure(E2CritError):
    """The q-series cannot reach the requested tolerance within MAX_TERMS
    terms, or its ratio exceeds the cap that the pull-back guarantees."""


class PoleAtLattice(E2CritError):
    """Evaluation requested at a lattice point where the function has a pole."""


class ReductionStalled(E2CritError):
    """Fundamental-domain reduction exceeded its step cap."""


class BoundaryZero(E2CritError):
    """|f| dipped below the safety threshold on an integration contour."""


class PhaseStepFailure(E2CritError):
    """Adaptive phase tracking exhausted its subdivision budget."""


class CountMismatch(E2CritError):
    """An argument-principle count disagrees with the predicted value."""


class Diverged(E2CritError):
    """Newton iteration failed to converge or left the upper half-plane."""


class DomainEscape(E2CritError):
    """A refined root left the interior of the fundamental domain."""


class BranchJump(E2CritError):
    """Square-root branch continuity was violated along a path."""


class RootBracketFailure(E2CritError):
    """A 1-D bisection could not bracket the expected root."""


class ConsistencyFailure(E2CritError):
    """Two independent computations of the same quantity disagree."""


class Unclassified(E2CritError):
    """Cusp behaviour is not covered by the implemented case analysis."""


class ExcludedPoint(E2CritError):
    """Evaluation requested at an explicitly excluded point."""
