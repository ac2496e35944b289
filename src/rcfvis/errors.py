"""Exception types shared across the package, mapped to CLI exit codes."""


class ArgumentError(ValueError):
    """Invalid argument to an operation (bad shape, axis, range)."""


class ConfigError(ValueError):
    """Bad run configuration: unknown key, out-of-range value.  Exit code 2."""


class FormatError(ValueError):
    """Corrupt or unreadable container/file.  Exit code 3."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class NumericError(ArithmeticError):
    """Non-finite value where a finite one is required.  Exit code 4."""


class CapacityError(ValueError):
    """More ground-truth instances than prediction slots."""


class StateError(RuntimeError):
    """Operation invoked on an uninitialized or inconsistent object."""
