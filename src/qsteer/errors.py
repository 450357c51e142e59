"""Exception types shared across the package, and the gap floor behind GapCollapse."""


class QSteerError(Exception):
    """Base class for all package-specific errors."""


# Gaps at or below this are treated as degenerate and raise GapCollapse.
GAP_FLOOR = 1e-9


class GapCollapse(QSteerError):
    """Instantaneous spectrum is (numerically) degenerate; the equations divide by the gap."""


class StepTooCoarse(QSteerError):
    """Central-difference step failed the Hermiticity self-check."""


class OutOfRange(QSteerError):
    """Query outside the domain of a tabulated quantity."""


class LoopNotClosed(QSteerError):
    """Berry-phase evaluation requested on a path that does not close in parameter space."""


class NonUniformGridUnsupported(QSteerError):
    """Frame-history grid too short or not strictly increasing for quadrature."""


class NonFiniteState(QSteerError):
    """Integrator produced a non-finite state component."""


class StepRejectionLimit(QSteerError):
    """Adaptive integrator exceeded the consecutive step-rejection limit."""


class ParseError(QSteerError):
    """Scenario configuration could not be parsed."""


class ValidationError(QSteerError):
    """Scenario configuration parsed but failed validation.

    Carries the full list of problems, not just the first one found.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
