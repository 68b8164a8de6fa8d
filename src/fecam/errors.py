"""Exception types shared across the package, the one test of what counts
as an integer, the one check of a bounded integer (`check_int`: every index,
count and width) and the one check of a bounded real (`check_real`: every
scalar voltage, time, current and ratio, every field of a parameter class
among them).

Every error carries a stable machine-parsable ``category`` string; the CLI
prints it as the single-line error code.
"""

import math
import sys

import numpy as np


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


def is_int(x) -> bool:
    """The package's one integer rule: a Python int or a numpy integer counts,
    a bool does not (True is not row 1 or width 1); plain ints pass first."""
    return type(x) is int or (isinstance(x, (int, np.integer)) and not isinstance(x, bool))


def check_int(value, what: str, lo: int, hi: int,
              error: type = InvalidParameterError) -> int:
    """The one bounded-integer check: `value` as a Python int in [lo, hi].  A
    non-integer or a bool (`is_int`) raises InvalidParameterError, an int
    outside the bounds `error`, with one message that names `what`."""
    if type(value) is int and lo <= value <= hi:  # the common case, first
        return value
    if not is_int(value):
        error = InvalidParameterError
    elif lo <= int(value) <= hi:  # a numpy int
        return int(value)
    try:
        got = repr(value)
    except ValueError:  # an int past the digit limit of int-to-str has no repr
        got = f"an int of {value.bit_length()} bits"
    raise error(f"{what} must be an integer in [{lo}, {hi}], got {got}")


def check_real(value, what: str, lo: float = -math.inf, hi: float = math.inf,
               error: type = InvalidParameterError, open: bool = False):
    """The one bounded-real check: `value`, returned as given, in [lo, hi], or
    in (lo, hi) when `open` is set.  An infinite end is always open, so NaN
    and +-inf never pass, nor does an int past the float range.  A value
    outside raises `error`, a value that is not one real number
    InvalidParameterError, with one message that names `what`; an int past
    the float range is shown by its bit length."""
    try:
        if (lo < value < hi or not open and (value == lo or value == hi)) and math.isfinite(value):
            return value  # the in-range cases, first
    except (TypeError, ValueError):  # no order with a number, or an array
        error = InvalidParameterError
    except OverflowError:  # an int past the float range, at an infinite end
        pass
    left = "(" if open or lo == -math.inf else "["
    right = ")" if open or hi == math.inf else "]"
    raise error(f"{what} must be in {left}{lo}, {hi}{right}, got {_shown(value)}")


def _shown(value) -> str:
    """str(value), but an int past the float range by its bit length, since
    str of an int past the digit limit raises ValueError."""
    if is_int(value) and not -sys.float_info.max <= value <= sys.float_info.max:
        return f"an int of {value.bit_length()} bits"
    return str(value)
