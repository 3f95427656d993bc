"""Exception types raised across the package.

Everything derives from GmbeError so callers can catch one base class at
the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class GmbeError(Exception):
    """Base class for all package errors."""


class DegreeViolation(GmbeError):
    """A variable does not have exactly two adjacent factors.

    Carries the full list of offending (variable, degree) pairs.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        msg = ", ".join(f"var {v} has degree {d}" for v, d in self.violations)
        super().__init__(f"not a degree-2 model: {msg}")


class NotAGrid(GmbeError):
    """Input factor graph does not have the expected grid structure."""


class OddFactorCount(GmbeError):
    """Cycle-with-chords generator needs an even number of factors >= 4."""


class DimensionMismatch(GmbeError):
    """A transform matrix does not match the variable cardinality."""


class GenerationFailed(GmbeError):
    """Random generation exhausted its retry budget."""


class ZeroWeight(GmbeError):
    """A power-sum weight of zero is undefined."""


class WidthExceeded(GmbeError):
    """Exact elimination would allocate a table above the entry guard."""

    def __init__(self, width, limit_entries):
        self.width = width
        self.limit_entries = limit_entries
        super().__init__(
            f"bucket width {width} exceeds the {limit_entries}-entry table guard"
        )


class IboundTooSmall(GmbeError):
    """A factor's arity exceeds the requested ibound."""

    def __init__(self, factor_id, arity, ibound):
        self.factor_id = factor_id
        self.arity = arity
        self.ibound = ibound
        super().__init__(
            f"factor {factor_id} has arity {arity} > ibound {ibound}"
        )


class NumericalUnderflow(GmbeError):
    """A conditional normalizer vanished; marginals are undefined."""


class SingularGaugeStep(GmbeError):
    """An edge matrix is singular or too ill-conditioned to invert."""


class ParseError(GmbeError):
    """Malformed model file."""

    def __init__(self, line, token, expected):
        self.line = line
        self.token = token
        self.expected = expected
        super().__init__(
            f"line {line}: got {token!r}, expected {expected}"
        )


class UnsupportedPreamble(GmbeError):
    """Model file declares a network type this package does not read."""


class NegativeValues(GmbeError):
    """The text model format stores nonnegative tables only."""


class BudgetExceeded(GmbeError):
    """Brute-force enumeration would exceed the configured state budget."""

    def __init__(self, states, budget):
        self.states = states
        self.budget = budget
        super().__init__(f"{states} joint states exceed budget {budget}")
