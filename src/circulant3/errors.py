"""Exception types shared across the package.

Every failure mode a caller may want to distinguish gets its own class;
all inherit from :class:`CirculantError` so the CLI can map them to exit
codes in one place.
"""

from __future__ import annotations


class CirculantError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(CirculantError):
    """Raised when expression source text does not match the grammar."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)


class EvalDomainError(CirculantError):
    """A subexpression was evaluated outside its mathematical domain."""

    def __init__(self, message: str, subexpression: str = ""):
        self.subexpression = subexpression
        if subexpression:
            message = f"{message} in subexpression '{subexpression}'"
        super().__init__(message)


class PositivityViolation(CirculantError):
    """The standing assumption A > B > 0 fails at the evaluation point."""

    def __init__(self, A: float, B: float, point):
        self.A = A = float(A)
        self.B = B = float(B)
        self.point = tuple(float(c) for c in point)
        super().__init__(f"metric positivity A > B > 0 violated: A={A!r}, B={B!r} at point {self.point}")


class DomainViolation(CirculantError):
    """A chart domain constraint evaluated to a non-positive value."""

    def __init__(self, constraint: str, value: float, point):
        self.constraint = constraint
        self.value = value
        self.point = tuple(float(c) for c in point)
        super().__init__(f"domain constraint '{constraint}' is {value!r} <= 0 at point {self.point}")


class NotAQBasis(CirculantError):
    """The vector does not generate a basis {x, qx, q^2 x}."""


class AngleRoutesDisagree(CirculantError):
    """The two routes to the q-basis angles disagree: the metric is too close to degenerate there."""


class DegeneratePlane(CirculantError):
    """Sectional curvature requested for linearly dependent vectors."""


class IdentityRNotSatisfied(CirculantError):
    """A check assuming the q-invariance of the curvature tensor was run where it fails."""


class ConstructionFailed(CirculantError):
    """No constructed candidate vector passed the q-basis criterion."""


class SamplingExhausted(CirculantError):
    """Rejection sampling did not reach the requested acceptance rate."""


class SpecFileError(CirculantError):
    """Manifold spec file is malformed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
