"""Exception and warning types shared across the library."""


class SuperlumError(Exception):
    """Base class for every error raised by this package."""


class BranchSpeedViolation(SuperlumError):
    """Speed is outside the valid range for the requested branch."""


class NonpositiveK(SuperlumError, ValueError):
    """K = 1/c**2 must be positive and finite, and so must a light speed c."""


class ZeroVelocity(SuperlumError):
    """The general transform family is undefined at V = 0."""


class DegenerateA(SuperlumError):
    """The scale function A vanishes (or is not finite) at the sample point."""


class NotConstant(SuperlumError):
    """The extracted K expression varies across sample velocities."""


class MixedK(SuperlumError):
    """Operands carry inconsistent values of K (or of the light speed c)."""


class PoleError(SuperlumError):
    """Velocity composition hit the 1 + K*V1*V2 = 0 pole (infinite-speed frame)."""


class ZeroExtent(SuperlumError):
    """Segment endpoints coincide, so no speed class is defined."""


class CyclicDiagram(SuperlumError):
    """Directed segments form a cycle, so path counting is undefined."""


class IsolatedEvent(SuperlumError):
    """An event touches no segment, so it has no role in the diagram."""


class SuperluminalSegment(SuperlumError):
    """Phase accumulation requires every path segment slower than c."""


class TruncationInsufficient(SuperlumError):
    """The exponential-series tail bound exceeds the requested tolerance."""


class NonfiniteResult(SuperlumError):
    """A value's magnitude does not fit in a float; the message names the
    inputs and log10 of the magnitude."""


class InvalidScenario(SuperlumError):
    """Scenario JSON does not match the expected schema."""


class LightSpeedResult(UserWarning):
    """Composed velocity landed on the light cone; flagged, not an error."""
