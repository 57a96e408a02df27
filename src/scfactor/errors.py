"""Exception types shared across the package.

Everything raised on purpose derives from ScfactorError so callers (and the
CLI) can tell deliberate refusals apart from genuine bugs.
"""

from __future__ import annotations


class ScfactorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ScfactorError):
    """A job configuration file is malformed or semantically invalid."""


class ParseError(ScfactorError):
    """An element or vector literal could not be parsed."""


class GMapSyntaxError(ScfactorError):
    """A map expression is syntactically or semantically invalid."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class DivisionByNonUnit(ScfactorError):
    """Division (or inv) was applied to a ring element with no inverse.

    When raised while stepping a recurrence, ``n`` records the step index so
    the engine can log the breakdown point.
    """

    def __init__(self, message: str, n: int | None = None):
        super().__init__(message)
        self.n = n


class TanhUnsupported(ScfactorError):
    """tanh was used outside the float-complex ring, or on a value with a
    non-negligible imaginary part."""

    def __init__(self, message: str, n: int | None = None):
        super().__init__(message)
        self.n = n


class NoncommutativeRing(ScfactorError):
    """A polynomial-based operation was requested over a noncommutative ring."""


class NoConvergence(ScfactorError, ValueError):
    """A numeric root iteration did not reach its residual tolerance: no
    reliable root set, which is not the same as no roots."""


class NotAValidRoot(ScfactorError):
    """A claimed root is not a unit or does not annihilate the polynomial(s)."""


class Irreducible(ScfactorError):
    """No reduction route exists for the recurrence (via the attempted path).

    Carries the root report that supports the verdict, when one exists.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CertificateFailure(ScfactorError):
    """The unit-sequence certificate recursion failed at step ``n``; ``side``
    is "a" or "b" when a built step names the identity that failed there."""

    def __init__(self, reason: str, n: int | None = None, side: str | None = None):
        message = reason if n is None else f"{reason} (at step n={n})"
        super().__init__(message)
        self.reason = reason
        self.n = n
        self.side = side


class CertificateNotPeriodic(ScfactorError):
    """Factor construction needs a proved-periodic certificate."""


class NotFoldable(ScfactorError):
    """Component recurrences cannot be folded into one module recurrence."""
