"""Exception hierarchy.

Every error carries the originating module and operation so CLI reports and
exit codes can name the failing stage.
"""
from __future__ import annotations


class QsemiError(Exception):
    """Base class; subclasses all carry (module, operation) provenance.

    An operation run on a stack (one entry per t of a grid, say) fails on its
    first failing entry; `index` is that entry's position in the flattened
    stack, and 0 for an operation on a single entry.
    """

    def __init__(self, message: str, *, module: str = "", operation: str = "",
                 index: int = 0):
        self.module = module
        self.operation = operation
        self.index = index
        if module or operation:
            message = f"[{module}.{operation}] {message}"
        super().__init__(message)


class NonSquare(QsemiError):
    pass


class DimensionMismatch(QsemiError):
    pass


class BranchCut(QsemiError):
    pass


class ConjugatePointOnPath(QsemiError):
    pass


class NotPSDWithinTol(QsemiError):
    pass


class NotRealWithinTol(QsemiError):
    pass


class DegenerateTime(QsemiError):
    pass


class NonIntegrableSymbol(QsemiError):
    pass


class NonIntegrableComposition(QsemiError):
    pass


class SeriesRegimeViolated(QsemiError):
    pass


class TimeTooLarge(QsemiError):
    pass


class RadiusExceeded(QsemiError):
    pass


class GammaCollapsed(QsemiError):
    pass


class GraphConditionFailed(QsemiError):
    pass


class NonIntegrable(QsemiError):
    pass


class NonPositiveSample(QsemiError):
    pass


class ExponentOrder(QsemiError):
    pass


class FixtureHasGraph(QsemiError):
    pass


class InvalidTolerance(QsemiError):
    pass


class ParseError(QsemiError):
    pass
