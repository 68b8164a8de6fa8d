"""Exception types shared across the package, and the finiteness check
every parameter class runs first.

Every error carries a stable machine-parsable ``category`` string; the CLI
prints it as the single-line error code.
"""

import math
from dataclasses import fields


class FecamError(Exception):
    category = "error"


class InvalidPulseError(FecamError):
    category = "invalid-pulse"


class OutOfRangeError(FecamError):
    category = "out-of-range"


class InvalidParameterError(FecamError):
    category = "invalid-parameter"


class EmptyWindowError(FecamError):
    category = "empty-window"


class DisturbViolationError(FecamError):
    category = "disturb-violation"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DimensionMismatchError(FecamError):
    category = "dimension-mismatch"


class InconsistentInputError(FecamError):
    category = "inconsistent-input"


class ParseError(FecamError):
    category = "parse-error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_finite(params) -> None:
    """Reject NaN and inf anywhere in a parameter dataclass: in its number
    fields and in the items of its tuple and dict fields.  None means unset."""
    for f in fields(params):
        value = getattr(params, f.name)
        items = (value.values() if isinstance(value, dict)
                 else value if isinstance(value, tuple) else (value,))
        if not all(x is None or math.isfinite(x) for x in items):
            raise InvalidParameterError(f"{f.name} must be finite, got {value}")
