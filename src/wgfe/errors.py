"""Exception types shared across the estimation modules."""

from __future__ import annotations


class WgfeError(Exception):
    """Base class for errors raised by this package."""


class EmptyGroupError(WgfeError):
    """A group referenced by an assignment contains no units.

    Parameters
    ----------
    groups : sequence of int
        1-based labels of the empty groups.
    """

    def __init__(self, groups):
        self.groups = tuple(int(g) for g in groups)
        super().__init__(f"empty group(s): {list(self.groups)}")

    def __reduce__(self):
        # the default re-calls __init__ with the message, not the groups
        return type(self), (self.groups,), self.__dict__


class SingularDesignError(WgfeError):
    """The demeaned covariate Gram matrix is numerically rank deficient."""


class NonConvergenceError(WgfeError):
    """An iterative solve hit its iteration cap before meeting tolerance.

    Carries the last iterate and the residual at the point of failure so
    callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        self.last_iterate = last_iterate
        self.residual = residual
        super().__init__(message)


class GroupCountMismatchError(WgfeError):
    """Two assignments being compared declare different group counts."""


class NonSpdError(WgfeError):
    """A matrix required to be symmetric positive definite is not."""


class IllConditionedError(WgfeError):
    """A group covariance is too ill conditioned for a stable derivative."""


class ParseError(WgfeError):
    """Malformed CSV input.

    Parameters
    ----------
    message : str
    line : int, optional
        1-based line number in the input file.
    column : str, optional
        Offending column name, when known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where += f" (line {line}"
            where += f", column {column})" if column is not None else ")"
        elif column is not None:
            where += f" (column {column})"
        super().__init__(message + where)


class DuplicateCellError(ParseError):
    """The same (unit, time) cell appears more than once in the input."""


class UnbalancedPanelError(ParseError):
    """The input panel is missing (unit, time) cells."""
