"""Shared exception types."""


class ModeMismatchError(ValueError):
    """Operands are defined on different numbers of modes."""


class DenseLimitError(ValueError):
    """A dense matrix above the one cap, 2**pauli.DENSE_LIMIT rows, was
    asked for: by pauli.realize, or as a truncated boson space."""


class SpeciesError(ValueError):
    """An operation received an expression of the wrong particle species."""


class SubspaceLeakError(ValueError):
    """A generator maps code states outside the code subspace."""

    def __init__(self, message, leaks=None):
        super().__init__(message)
        self.leaks = leaks or []


class ParseError(ValueError):
    """Syntax error in the operator expression language."""

    def __init__(self, message, position=None):
        self.message = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
