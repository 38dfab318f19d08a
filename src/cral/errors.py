"""Exception types shared across the package."""


class CralError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CralError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(CralError, ValueError):
    """A caller violated a documented precondition."""


class SpecError(CralError, ValueError):
    """An architecture or generator specification is invalid."""


class DataError(CralError, ValueError):
    """A dataset is empty, inconsistent, or otherwise unusable."""


class ParseError(CralError, ValueError):
    """A data file failed to parse.

    Carries the 1-based line number of the offending line and the file's
    path when known; ``reason`` is the message without them.
    """

    def __init__(self, message, line_number=None, path=None):
        self.reason, self.line_number, self.path = message, line_number, path
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ConfigError(CralError, ValueError):
    """A run configuration is malformed (unknown key, bad type, missing path)."""


class TrainingError(CralError, RuntimeError):
    """Training hit a non-finite loss or gradient."""
