"""The rules for input, each in one place: what is a number, a label or a
finite value (finite, finite_column, as_phases and finite_count, which
raise NonfiniteInput), and the one reader of JSON files."""

import cmath
import json
import reprlib
import sys

import numpy as np

from .errors import NonfiniteInput, SuperlumError


def is_number(value) -> bool:
    """A JSON number: a float, or an int that is not a bool and fits in a float."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def is_label(value) -> bool:
    """An event label or a branch name: a JSON string."""
    return isinstance(value, str)


def is_finite(value, name: str = "a value") -> bool:
    """A real or complex number whose parts are finite floats (an int beyond
    a float is not); TypeError naming name for a value that is no number."""
    try:
        return cmath.isfinite(value)
    except OverflowError:
        return False
    except TypeError:
        raise TypeError(f"{name} must be a number, got {reprlib.repr(value)}") from None


def finite(name: str, value, kind: type = float):
    """kind(value), kind float or complex, or NonfiniteInput
    "{name} must be finite, got {value}" where value is not finite."""
    try:
        good = cmath.isfinite(value)
    except (OverflowError, TypeError):
        good = is_finite(value, name)  # False for an int beyond a float; TypeError for no number
    if not good:
        raise NonfiniteInput(f"{name} must be finite, got {reprlib.repr(value)}")
    return kind(value)


def _array(values, name: str) -> np.ndarray:
    """values as a float64 array, or an object array where an int beyond a
    float has no float; ValueError naming name for a ragged sequence."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        return np.asarray(values, dtype=object)
    except ValueError:
        raise ValueError(f"{name} must be a rectangular array of real numbers") from None


def _first_bad(arr: np.ndarray):
    """The flat index and value of arr's first entry that is not finite, or
    None, after one np.isfinite pass over a float64 arr."""
    if arr.dtype == object or not np.isfinite(arr).all():
        return next((i, v) for i, v in enumerate(arr.ravel().tolist()) if not is_finite(v))
    return None


def real_array(name: str, values) -> np.ndarray:
    """values as a float64 array, nan and inf kept; finite names an int beyond a float."""
    arr = _array(values, name)
    if arr.dtype == object:
        finite(name, _first_bad(arr)[1])
    return arr


def finite_column(name: str, values, size: int | None = None):
    """values as a float64 array of finite values, or finite's error for the
    first that is not; given size, a vector of size floats, as a tuple."""
    arr = _array(values, name)
    if size is not None and arr.shape != (size,):
        raise ValueError(f"need {size} values of {name}, got an array of shape {arr.shape}")
    bad = _first_bad(arr)
    if bad:
        finite(name, bad[1])
    return arr if size is None else tuple(arr.tolist())


def as_phases(phases) -> np.ndarray:
    """phases as a non-empty 1-D float64 array.  A phase that is not finite,
    or an int beyond a float, raises NonfiniteInput naming the first such
    phase by its index and its value, cut by reprlib."""
    arr = np.atleast_1d(_array(phases, "a phase set"))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a phase set is a non-empty 1-D array of reals")
    bad = _first_bad(arr)
    if bad:
        raise NonfiniteInput(f"phases must be finite; phase {bad[0]} is {reprlib.repr(bad[1])}")
    return arr


def finite_count(name: str, value):
    """value, a positive number that is a finite float, or NonfiniteInput."""
    fault = "a finite float" if not is_finite(value, name) else None if value > 0 else "positive"
    if fault:
        raise NonfiniteInput(f"{name} must be positive and finite; "
                             f"{name} = {reprlib.repr(value)} is not {fault}")
    return value


def read_json(path, error: type[SuperlumError] = SuperlumError):
    """The JSON value in the file at path.  Text that is not JSON, and JSON
    nested deeper than the parser's recursion limit, raise error naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as exc:
        raise error(f"{path} nests its JSON too deeply to read") from exc
    except ValueError as exc:  # a JSONDecodeError, bad UTF-8 or an int of too many digits
        raise error(f"invalid JSON in {path}: {type(exc).__name__}: {exc}") from exc
