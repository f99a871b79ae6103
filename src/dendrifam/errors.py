"""Exception types shared across the package, and how a refusal shows outside text."""

SHOWN_MAX = 40  # the most characters of a repr that a refusal shows


def shown(x) -> str:
    """``x`` in a refusal: a string whose repr fits in ``SHOWN_MAX`` characters as that repr
    (``'ab'``; a repr is longer than its string, so the string's first ``SHOWN_MAX``
    characters decide), a longer one as ``a string of N characters``, else its type."""
    if type(x) is not str:
        return f"a {type(x).__name__}"
    text = repr(x[:SHOWN_MAX])
    return text if len(text) <= SHOWN_MAX else f"a string of {len(x)} characters"


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
