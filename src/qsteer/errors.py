"""Exception types shared across the package, and the gap floor behind GapCollapse."""


class QSteerError(Exception):
    """Base class for all package-specific errors."""


# Gaps at or below this are treated as degenerate and raise GapCollapse.
GAP_FLOOR = 1e-9


class GapCollapse(QSteerError):
    """Instantaneous spectrum is (numerically) degenerate; the equations divide by the gap."""


class GaugeUndefined(QSteerError):
    """An anchored eigenvector component is exactly zero: the path reached its antipode.

    The anchored gauge rotates that component to the positive real axis, so it
    has no phase to fix there and the w diagonals divide by it.
    """


class OutOfRange(QSteerError):
    """Query outside the domain of a tabulated quantity."""


class LoopNotClosed(QSteerError):
    """Berry-phase evaluation requested on a path that does not close in parameter space."""


class NonFiniteState(QSteerError):
    """A state component, error estimate or frame quantity is not finite.

    The frame quantities are alpha, a NaN field and the normalisation of a
    huge field.
    """


class StepRejectionLimit(QSteerError):
    """Adaptive steps were rejected too often in a row, or shrank until t + dt == t."""


class ParseError(QSteerError):
    """Scenario configuration could not be parsed."""


class ValidationError(QSteerError):
    """Scenario configuration parsed but failed validation.

    Carries the full list of problems, not just the first one found.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
