"""Exception hierarchy shared across the package."""


class DerivringError(Exception):
    """Base class for every error raised by this package."""


class InvalidRing(DerivringError):
    """A ring descriptor violates a structural requirement (e.g. even modulus)."""


class DomainError(DerivringError):
    """An operation was applied outside its domain: mismatched rings,
    bad indices, wrong shapes, or a map that does not exist on the ring."""


class ContractError(DerivringError):
    """A validated precondition does not hold, e.g. witness data that is
    inconsistent with its oracle."""


class ParseError(DerivringError):
    """Malformed or non-canonical serialized input."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
