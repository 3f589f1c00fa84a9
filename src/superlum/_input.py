"""The rules for input, each in one place: what is a number, a real number,
a whole number, a label, a finite value, a sequence or a value of a given
type (real, whole, finite, finite_column, as_phases, finite_count, sequence
and instance), and the one reader of JSON files.  A value that breaks a
rule raises InvalidInput naming it, or its kind NonfiniteInput where the
value is not finite."""

import cmath
import json
import math
import os
import reprlib
import sys

import numpy as np

from .errors import InvalidInput, NonfiniteInput, SuperlumError

_COMPLEX = (complex, np.complexfloating)


def is_number(value) -> bool:
    """A JSON number: a float, or an int that is not a bool and fits in a float."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def is_label(value) -> bool:
    """An event label or a branch name: a JSON string."""
    return isinstance(value, str)


def is_finite(value, name: str = "a value") -> bool:
    """A real or complex number whose parts are finite floats (an int beyond
    a float is not); InvalidInput naming name for a value that is no number."""
    try:
        return cmath.isfinite(value)
    except OverflowError:
        return False
    except TypeError:
        raise InvalidInput(f"{name} must be a number, got {reprlib.repr(value)}") from None


def real(name: str, value) -> float:
    """float(value), nan and +/-inf kept, for a real number.  InvalidInput
    "{name} must be real, got {value}" for a value of a complex type,
    whatever its imaginary part (float() takes none), is_finite's for no
    number, and NonfiniteInput for an int beyond a float."""
    if isinstance(value, float):  # numpy's float64 too
        return float(value)
    if not isinstance(value, int):
        is_finite(value, name)  # InvalidInput for no number
    if not isinstance(value, _COMPLEX):
        try:
            return float(value)
        except OverflowError:  # an int beyond a float
            raise NonfiniteInput(f"{name} {reprlib.repr(value)} does not fit in a float") from None
        except TypeError:  # a number with no float
            pass
    raise InvalidInput(f"{name} must be real, got {reprlib.repr(value)}")


def finite(name: str, value, kind: type = float, infinite: bool = False):
    """value as a float (real's rule) or, for kind complex, a complex; or
    NonfiniteInput "{name} must be finite, got {value}" where value is not
    finite, save +/-inf where infinite is set."""
    if not (is_finite(value, name) or infinite and abs(value) == math.inf):
        rule = " or +/-inf" if infinite else ""
        raise NonfiniteInput(f"{name} must be finite{rule}, got {reprlib.repr(value)}")
    return real(name, value) if kind is float else complex(value)


def _array(values, name: str) -> np.ndarray:
    """values as a float64 array, or an object array where an int beyond a
    float has no float.  InvalidInput naming name for a ragged sequence, an
    entry that is no number (a string too, as for a scalar), or a complex
    entry, by its flat index: the first whose imaginary part is not 0, or
    else the first."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "biufO":  # bools, ints, floats and Python objects
            return arr.astype(float, copy=False)
    except OverflowError:  # an int beyond a float
        return np.asarray(values, dtype=object)
    except (TypeError, ValueError):  # ragged, or an entry that is no real number
        pass
    entries = np.asarray(values, dtype=object).ravel().tolist()  # each as given
    bad = [(i, v) for i, v in enumerate(entries) if isinstance(v, _COMPLEX)]
    if not bad:
        raise InvalidInput(f"{name} must be a rectangular array of real numbers")
    i, v = next(((i, v) for i, v in bad if v.imag), bad[0])
    raise InvalidInput(f"{name} must be real, got {reprlib.repr(v)} at entry {i}")


def _first_bad(arr: np.ndarray):
    """The flat index and value of arr's first entry that is not finite, or
    None.  A float64 arr is finite where its least and largest entries are,
    since a NaN reaches both and an inf one of them: two reductions and no
    array of arr's size.  An object arr, or one that is not finite, is
    scanned entry by entry."""
    if arr.dtype != object and (not arr.size or math.isfinite(np.minimum.reduce(arr, axis=None))
                                and math.isfinite(np.maximum.reduce(arr, axis=None))):
        return None
    return next((i, v) for i, v in enumerate(arr.ravel().tolist()) if not is_finite(v))


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
        raise InvalidInput(f"need {size} values of {name}, got an array of shape {arr.shape}")
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
        raise InvalidInput("a phase set is a non-empty 1-D array of reals")
    bad = _first_bad(arr)
    if bad:
        raise NonfiniteInput(f"phases must be finite; phase {bad[0]} is {reprlib.repr(bad[1])}")
    return arr


def finite_count(name: str, value):
    """value, a positive real number that is a finite float, or
    NonfiniteInput; real's InvalidInput for a complex value."""
    fault = ("a finite float" if not is_finite(value, name) else
             None if real(name, value) > 0 else "positive")
    if fault:
        raise NonfiniteInput(f"{name} must be positive and finite; "
                             f"{name} = {reprlib.repr(value)} is not {fault}")
    return value


def whole(name: str, value, low: int = 0, high: int | None = None) -> int:
    """value as an int, for a whole number in [low, high] (no upper bound
    where high is None), a float of whole value included; InvalidInput
    "{name} must be a whole number in [low, high], got {name}={value}"."""
    try:
        n = int(value)
        good = n == value and low <= n and (high is None or n <= high)
    except (TypeError, ValueError, OverflowError):  # no number, or nan or inf
        good = False
    if not good:
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInput(f"{name} must be a whole number {span}, "
                           f"got {name}={reprlib.repr(value)}")
    return n


def instance(name: str, value, kind: type | tuple[type, ...]):
    """value, where it is an instance of kind (a type or a tuple of them);
    InvalidInput "{name} must be of type {kind}, got {value}" otherwise."""
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise InvalidInput(f"{name} must be of type {kinds}, got {reprlib.repr(value)}")
    return value


def sequence(name: str, value, kind: type | tuple[type, ...] | None = None,
             rule: str = "be a sequence") -> tuple:
    """The items of value as a tuple, for a value that can be iterated, and,
    given kind, each an instance of it (instance, naming the item "{name}[i]");
    InvalidInput "{name} must {rule}, got {value}" for one that cannot."""
    try:
        items = tuple(value)
    except TypeError:
        raise InvalidInput(f"{name} must {rule}, got {reprlib.repr(value)}") from None
    if kind is not None:
        for i, item in enumerate(items):
            instance(f"{name}[{i}]", item, kind)
    return items


def read_json(path, error: type[SuperlumError] = SuperlumError):
    """The JSON value in the file at path, a str or an os.PathLike; error
    naming path for any other path, so that no file descriptor or other
    value reaches open.  Text that is not JSON, and JSON nested deeper than
    the parser's recursion limit, raise error naming path."""
    if not isinstance(path, (str, os.PathLike)):
        raise error(f"a JSON file path must be a str or an os.PathLike, "
                    f"got {reprlib.repr(path)}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as exc:
        raise error(f"{path} nests its JSON too deeply to read") from exc
    except ValueError as exc:  # a JSONDecodeError, bad UTF-8 or an int of too many digits
        raise error(f"invalid JSON in {path}: {type(exc).__name__}: {exc}") from exc
