"""Exception types shared across the package."""


def shown(x) -> str:
    """``x`` in an error message: a string's repr, else its type, never a deep repr."""
    return repr(x) if type(x) is str else f"a {type(x).__name__}"


class AlgebraError(Exception):
    """Base class for all dendrifam errors."""


class InvalidElement(AlgebraError):
    """An element does not belong to the configured semigroup or alphabet."""


class InfiniteSemigroup(AlgebraError):
    """A finite enumeration was requested over an infinite semigroup."""


class SemigroupViolation(AlgebraError):
    """A semigroup or its config is refused; a failed Cayley table carries its ``witness``."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TypingViolation(AlgebraError):
    """An edge type contradicts its child: identity iff the child is a leaf."""


class ArityMismatch(AlgebraError):
    """Decoration, edge-type and child lists of a vertex disagree in length."""


class LeafOperand(AlgebraError):
    """The bare leaf was used where a genuine span is required."""


class IdentityMisuse(AlgebraError):
    """The adjoined identity was used as a family index at the public API."""


class AxiomFailure(AlgebraError):
    """A required algebraic identity failed on a concrete instance."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class TermSyntaxError(AlgebraError):
    """Malformed text for the term grammar; reports line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
