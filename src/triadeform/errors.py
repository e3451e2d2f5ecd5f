"""Shared exception types.

Every error the package raises deliberately derives from TriadeformError so
callers (and the CLI) can distinguish usage mistakes from genuine property
failures.
"""

from __future__ import annotations


class TriadeformError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TriadeformError):
    """Malformed ring spec, element literal, or formula text."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class InvalidParameter(TriadeformError):
    """Structurally valid input whose value is outside the supported domain."""


class DivisionByZeroDivisor(TriadeformError):
    """Divisibility query against zero."""


class NotAUnit(TriadeformError):
    """Element is not invertible in its ring."""


class NotInSubgroupB(TriadeformError):
    """Element lies outside the designated torsion-free unit subgroup."""


class DomainMismatch(TriadeformError):
    """Two objects defined over incompatible groups or rings."""


class UnsupportedCodomain(TriadeformError):
    """Coefficient group lacks the decidable root extraction we rely on."""


class NotBijective(TriadeformError):
    """Homomorphism expected to be an isomorphism is not."""


class TooLarge(TriadeformError):
    """Requested enumeration exceeds the configured size bound."""


class CombinatorialBlowup(TriadeformError):
    """Formula construction would emit more conjuncts than the cap allows."""


class BudgetExceeded(TriadeformError):
    """Naive quantifier expansion ran past the atom budget."""

    def __init__(self, budget: int):
        super().__init__(f"quantifier expansion exceeded the budget of {budget} atoms")
        self.budget = budget


class UnboundVariable(TriadeformError):
    """Free variable without an assignment or matching constant."""


class UnregisteredDefinableSet(TriadeformError):
    """A @set atom referenced a name the model does not register."""


class NotDiagonal(TriadeformError):
    """Operation requires an element with trivial unipotent part."""
