"""Exception types shared across the package.

Everything derives from RaamkitError so callers (in particular the CLI)
can distinguish toolkit-level failures from programming errors.
"""


class RaamkitError(Exception):
    """Base class for all toolkit errors."""


class BadVertex(RaamkitError):
    """A vertex index is outside 1..n."""


class GraphMismatch(RaamkitError):
    """Two objects built over different graphs were combined."""


class NotAClique(RaamkitError):
    """A vertex set that must span a clique does not."""


class NotDivisible(RaamkitError):
    """Left quotient requested for a non-divisor."""


class EmptyInput(RaamkitError):
    """An operation that needs at least one element got none."""


class LevelTooLarge(RaamkitError):
    """Norm-level enumeration would exceed the ball-size guard."""


class GuardExceeded(RaamkitError):
    """A combinatorial search would exceed its work guard."""


class DimensionMismatch(RaamkitError):
    """Matrix shapes are inconsistent with the declared dimension."""


class NotSquare(RaamkitError):
    """A square matrix was required."""


class NotPropertyP(RaamkitError):
    """The defect operator has a genuinely negative eigenvalue."""


class ParseError(RaamkitError):
    """Malformed problem input (JSON structure or element literal)."""


class ValidationError(RaamkitError):
    """Structurally valid input with out-of-contract values."""
