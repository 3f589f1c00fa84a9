"""The rules for JSON input: what is a number, what is a label, and the one
reader of JSON files."""

import json
import sys

from .errors import SuperlumError


def is_number(value) -> bool:
    """A JSON number: a float, or an int that is not a bool and fits in a float."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def is_label(value) -> bool:
    """An event label or a branch name: a JSON string."""
    return isinstance(value, str)


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
