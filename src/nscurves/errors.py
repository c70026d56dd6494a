"""Exception taxonomy shared by all modules."""


class NSCurvesError(Exception):
    """Base class for all package errors."""


class MatchingViolation(NSCurvesError):
    """Normal coordinates fail the parity or triangle conditions."""


class Disconnected(NSCurvesError):
    """Normal coordinates trace to more than one closed component."""


class Inessential(NSCurvesError):
    """The traced curve is nullhomotopic."""


class NotCoprime(NSCurvesError):
    """Slope parameters are not coprime."""


class WrongGenus(NSCurvesError):
    """Operation requires a genus-one surface."""


class PreconditionViolation(NSCurvesError):
    """An operation was called outside its stated precondition."""


class NoSuccessor(NSCurvesError):
    """The terminal bicorn (the full second curve) has no successor."""


class DisconnectedGraph(NSCurvesError):
    """Metric computation on a graph that is not connected."""


class InternalInvariantError(NSCurvesError):
    """A structural invariant failed; indicates a bug, not bad input."""
