"""Exception hierarchy shared by all adiawell modules.

Every error raised on purpose by this package derives from AdiawellError so
callers can catch the lot with one clause.  The subclasses mirror the failure
modes of the numerical layers: branch-cut misuse, special-function arguments
out of the evaluator's range, root finding running off its bracket, contours
that meet a singularity or fall short of their decay level, diverging contour
traces, and linear-algebra failures inside the finite difference reference
solver.
"""

from __future__ import annotations


class AdiawellError(Exception):
    """Base class for all package-specific errors."""


class BranchViolation(AdiawellError):
    """A multivalued function was evaluated on its cut without a side tag."""


class PoleAt(AdiawellError):
    """Evaluation requested exactly at a pole or branch-point singularity."""


class AccuracyLoss(AdiawellError):
    """A special-function evaluation cannot return an accurate value."""


class OnCut(AdiawellError):
    """Argument lies on the cut of a special function that is not defined there."""


class NoEigenvalue(AdiawellError):
    """No bound state exists for the requested mode at the requested slow time."""


class ContinuationFailure(AdiawellError):
    """Newton continuation of a root left its validity region or stalled."""


class ContourClash(AdiawellError):
    """A requested integration contour passes through a singularity."""


class TraceDiverged(AdiawellError):
    """A descent-path trace failed to reach its damping target."""


class TruncationTooSmall(AdiawellError):
    """A truncated contour or series was too short for the requested accuracy."""


class LinearSolveFailure(AdiawellError):
    """The banded linear solve inside the time stepper failed."""
